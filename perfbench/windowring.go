package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/densindex"
	"repro/internal/geom"
	"repro/internal/service"
)

// window-ring: three dpcd instances as a 3-shard rf=2 ring over a
// sliding window of AirlineLike. Both clients talk JSON to the shard
// that neither owns nor replicates the key. The writer (side) appends,
// refits Approx-DPC and sweeps eight Ex-DPC d_cut settings; the reader
// (main) sends batch assigns against the Approx-DPC lineage.

const ringKey = "airline"

type windowRing struct {
	cfg     config
	tr      *tracer
	nodes   []*node
	primary *node
	window  int
	dim     int
	mirror  []float64 // the window as the ring should hold it, row-major

	fitReq   api.FitRequest
	sweepReq api.SweepRequest
	appends  [][][]float64
	queries  [][][]float64
	next     int // next append batch

	reader, writer *service.Client
	rng            *rand.Rand

	firstCheck, lastCheck *sweepCheck
	writes                int64
	fitStats              []api.ModelStats // traced refits
}

// sweepCheck is one sweep answer and the window it was computed on.
type sweepCheck struct {
	window []float64
	resp   api.SweepResponse
}

func setupWindowRing(cfg config, tr *tracer, rec *recorder) (instance, error) {
	win, ab, qb := cfg.size(20000, 2000), cfg.size(2000, 200), cfg.size(1024, 64)
	const nAppends, nQueries = 48, 32
	total := win + nAppends*ab + nQueries*qb
	all := draw(data.AirlineLike, 2*total, total, cfg.seed)
	w := &windowRing{
		cfg: cfg, tr: tr, window: win, dim: all.Points.Dim,
		mirror: slices.Clone(all.Points.Coords[:win*all.Points.Dim]),
		fitReq: api.FitRequest{Dataset: ringKey, Algorithm: "Approx-DPC",
			Params: api.Params{DCut: all.DCut, RhoMin: all.RhoMin, DeltaMin: all.DeltaMin}},
		sweepReq: api.SweepRequest{Dataset: ringKey, Algorithm: "Ex-DPC"},
		rng:      rand.New(rand.NewSource(cfg.seed + 2)),
	}
	for k := 0; k < 8; k++ {
		w.sweepReq.Settings = append(w.sweepReq.Settings, api.SweepSetting{
			DCut: all.DCut * (0.6 + 0.4*float64(k)/7), RhoMin: all.RhoMin, DeltaMin: all.DeltaMin,
		})
	}
	rows := func(from, n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = all.Points.At(from + i)
		}
		return out
	}
	for k := 0; k < nAppends; k++ {
		w.appends = append(w.appends, rows(win+k*ab, ab))
	}
	for k := 0; k < nQueries; k++ {
		w.queries = append(w.queries, rows(win+nAppends*ab+k*qb, qb))
	}

	nodes, peers, err := bootRing(3, 2, service.Options{Workers: cfg.procs, Drift: defaultDrift(), Window: int64(win)}, tr)
	if err != nil {
		return nil, err
	}
	w.nodes = nodes
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	owners, err := ringOwners(peers[0], ringKey)
	if err != nil {
		return nil, err
	}
	var entry *node
	for i, n := range nodes {
		switch {
		case peers[i] == owners[0]:
			w.primary = n
		case !slices.Contains(owners, peers[i]):
			entry = n
		}
	}
	if w.primary == nil || entry == nil || len(owners) != 2 {
		return nil, fmt.Errorf("ring placed %q on %v; want 2 of 3 shards", ringKey, owners)
	}
	w.reader = service.NewClient(entry.base, service.ClientOptions{})
	w.writer = service.NewClient(entry.base, service.ClientOptions{})
	var up bytes.Buffer
	if err := data.SaveBinary(&up, geom.NewDataset(w.mirror, w.dim)); err != nil {
		return nil, err
	}
	if _, err := w.writer.PutDataset(ringKey, "binary", up.Bytes()); err != nil {
		return nil, err
	}
	if _, err := w.writer.Fit(w.fitReq); err != nil {
		return nil, err
	}
	ok = true
	return w, nil
}

// ringOwners asks an instance for the key's replica set, primary first.
func ringOwners(base, key string) ([]string, error) {
	resp, err := http.Get(base + "/v1/ring?key=" + url.QueryEscape(key))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var info api.RingInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("decoding /v1/ring: %w", err)
	}
	return info.Owners, nil
}

func (w *windowRing) drive(rec *recorder, d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			w.readOp(rec)
		}
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			w.writeOp(rec)
		}
	}()
	wg.Wait()
}

func (w *windowRing) readOp(rec *recorder) {
	q := w.queries[w.rng.Intn(len(w.queries))]
	op := w.tr.begin(roleReader)
	start := time.Now()
	resp, err := w.reader.Assign(api.AssignRequest{FitRequest: w.fitReq, Points: q})
	end := time.Now()
	w.tr.add(op, "client.assign", "", start, end)
	rec.add(classMain, "", end.Sub(start), int64(len(q)))
	if err != nil {
		rec.fail("relayed assign: %v", err)
		return
	}
	labels := resp.Labels
	if w.cfg.corrupt {
		labels = labels[1:]
	}
	if len(labels) != len(q) {
		rec.fail("relayed assign: %d labels for %d points", len(labels), len(q))
		return
	}
	for _, l := range labels {
		if l < core.NoCluster || int(l) >= resp.Clusters {
			rec.fail("relayed assign: label %d outside [-1, %d)", l, resp.Clusters)
			return
		}
	}
	rec.done(classMain, int64(len(labels)))
}

// writeOp is one writer cycle: append, refit, sweep.
func (w *windowRing) writeOp(rec *recorder) {
	batch := w.appends[w.next%len(w.appends)]
	w.next++
	start := time.Now()
	fail := func(format string, args ...any) {
		rec.add(classSide, "", time.Since(start), int64(len(batch)))
		rec.fail(format, args...)
	}

	ar, err := timedCall(w.tr, rec, "append", func() (api.AppendResponse, error) {
		return w.writer.AppendPoints(api.AppendRequest{Dataset: ringKey, Points: batch})
	})
	if err != nil {
		fail("append: %v", err)
		return
	}
	if ar.N != w.window || ar.Appended != len(batch) || ar.Expired != len(batch) {
		fail("append: window n=%d appended=%d expired=%d, want %d/%d/%d", ar.N, ar.Appended, ar.Expired, w.window, len(batch), len(batch))
		return
	}
	w.mirror = append(w.mirror[len(batch)*w.dim:], slices.Concat(batch...)...)

	fr, err := timedCall(w.tr, rec, "refit", func() (api.FitResponse, error) { return w.writer.Fit(w.fitReq) })
	if err != nil {
		fail("refit: %v", err)
		return
	}
	// A drift-triggered background refit may have fitted this version
	// first, so a cache hit is a correct answer too.
	if fr.Model.N != w.window {
		fail("refit: model of %d points, want %d", fr.Model.N, w.window)
		return
	}
	sr, err := timedCall(w.tr, rec, "sweep", func() (api.SweepResponse, error) { return w.writer.Sweep(w.sweepReq) })
	if err != nil {
		fail("sweep: %v", err)
		return
	}
	if sr.N != w.window || len(sr.Results) != len(w.sweepReq.Settings) {
		fail("sweep: n=%d with %d results", sr.N, len(sr.Results))
		return
	}
	rec.add(classSide, "", time.Since(start), int64(len(batch)))
	c := &sweepCheck{window: slices.Clone(w.mirror), resp: sr}
	if w.firstCheck == nil {
		w.firstCheck = c
	}
	w.lastCheck = c
	if w.tr.on.Load() {
		w.writes += 2 // the append and the refit are the replicated writes
		w.fitStats = append(w.fitStats, fr.Model)
	}
}

// timedCall runs one writer HTTP call as its own traced operation and
// records its duration under name.
func timedCall[T any](tr *tracer, rec *recorder, name string, call func() (T, error)) (T, error) {
	op := tr.begin(roleWriter)
	start := time.Now()
	out, err := call()
	end := time.Now()
	tr.add(op, "client."+name, "", start, end)
	rec.addSub(name, end.Sub(start))
	return out, err
}

// verify compares the first and last sweeps with local Ex-DPC fits of
// the same window.
func (w *windowRing) verify(rec *recorder) {
	rec.check(w.lastCheck != nil, "window-ring: no writer cycle completed")
	checks := []*sweepCheck{w.firstCheck}
	if w.lastCheck != w.firstCheck {
		checks = append(checks, w.lastCheck)
	}
	alg, _ := core.AlgorithmByName("Ex-DPC")
	for _, c := range checks {
		if c == nil {
			continue
		}
		ds := geom.NewDataset(c.window, w.dim)
		for i, st := range w.sweepReq.Settings {
			p := core.Params{DCut: st.DCut, RhoMin: st.RhoMin, DeltaMin: st.DeltaMin, Workers: w.cfg.procs}
			res, err := alg.ClusterDataset(ds, p)
			if err != nil {
				rec.check(false, "local Ex-DPC at dcut %g: %v", st.DCut, err)
				continue
			}
			got := c.resp.Results[i]
			clusters := got.Clusters
			if w.cfg.corrupt {
				clusters++
			}
			rec.check(clusters == res.NumClusters() && sameSet(got.Centers, res.Centers),
				"sweep at dcut %g: %d clusters (centers %v), local Ex-DPC has %d (centers %v)",
				st.DCut, clusters, got.Centers, res.NumClusters(), res.Centers)
		}
	}
}

func (w *windowRing) counters() (counters, error) {
	var c counters
	for i, n := range w.nodes {
		rs, err := service.NewClient(n.base, service.ClientOptions{}).RingStats()
		if err != nil {
			return c, err
		}
		if i == 0 {
			c.Stats = rs.Total
		}
		c.replicated += rs.Replicated
	}
	return c, nil
}

// summary reports the reader's points per second as median seconds;
// the writer's cycles last seconds each, so its rate is points appended
// over time spent cycling.
func (w *windowRing) summary(rec *recorder, d time.Duration) (main, side opStats) {
	main, side = summarize(rec.main), summarize(rec.side)
	main.ptsPerS = rec.rate(classMain, d)
	return main, side
}

func (w *windowRing) named(rec *recorder, d time.Duration) []named {
	main := summarize(rec.main)
	return []named{
		{"append_p50_ms", ms(medianDur(rec.sub["append"])), "ms"},
		{"refit_p50_s", medianDur(rec.sub["refit"]).Seconds(), "s"},
		{"sweep_p50_s", medianDur(rec.sub["sweep"]).Seconds(), "s"},
		{"relay_assign_p50_ms", ms(main.p50), "ms"},
		{"relay_assign_p99_ms", ms(main.p99), "ms"},
	}
}

func (w *windowRing) layers(rec *recorder, tr *tracer, v map[string]float64) error {
	ds := geom.NewDataset(slices.Clone(w.mirror), w.dim)
	dcut := w.fitReq.Params.DCut
	q := w.queries[0]
	v["geom.sqdist_ns.d3"] = sqdistNs(tr, ds, w.cfg.seed)
	v["kdtree.build_ms"], v["kdtree.range_count_us"], v["kdtree.nn_us"] = treeLayers(tr, ds, dcut, q)
	v["grid.build_ms"] = gridBuildMs(tr, ds, dcut)

	// The ring's refits, from the timings each fit response reports.
	phase := func(get func(api.ModelStats) float64) float64 {
		vs := make([]float64, len(w.fitStats))
		for i, m := range w.fitStats {
			vs[i] = get(m)
		}
		return median(vs)
	}
	v["core.approxdpc.build_s"] = phase(func(m api.ModelStats) float64 { return m.Timing.Build })
	v["core.approxdpc.rho_s"] = phase(func(m api.ModelStats) float64 { return m.Timing.Rho })
	v["core.approxdpc.delta_s"] = phase(func(m api.ModelStats) float64 { return m.Timing.Delta })
	v["core.approxdpc.label_s"] = phase(func(m api.ModelStats) float64 { return m.Timing.Label })
	v["core.airline.approxdpc.fit_s"] = phase(func(m api.ModelStats) float64 { return m.FitSecs })

	fp := w.fitReq.Params
	p := core.Params{DCut: fp.DCut, RhoMin: fp.RhoMin, DeltaMin: fp.DeltaMin, Workers: w.cfg.procs}
	approx, _ := core.AlgorithmByName(w.fitReq.Algorithm)
	model, err := core.Fit(approx, ds, p)
	if err != nil {
		return err
	}
	if err := assignLayers(tr, model, q, w.cfg.procs, v); err != nil {
		return err
	}
	var aerr error
	d := medianTimed(tr, "service.assign", 5, func() { _, _, aerr = w.primary.svc.Assign(ringKey, w.fitReq.Algorithm, p, q) })
	if aerr != nil {
		return aerr
	}
	v["service.assign_ms"] = ms(d)
	if err := w.serviceWrites(tr, ds, p, v); err != nil {
		return err
	}
	if err := w.indexLayers(tr, ds, v); err != nil {
		return err
	}
	if err := persistLayers(tr, ringKey, ds, v); err != nil {
		return err
	}
	var snaps [][]byte
	ship := medianTimed(tr, "router.ship", 3, func() { snaps = w.primary.svc.ReplicationSnapshots(ringKey) })
	v["router.ship_ms"] = ms(ship)
	for _, s := range snaps {
		v["router.ship_bytes"] += float64(len(s))
	}
	v["router.writes"] = float64(w.writes)
	if err := wireLayers(tr, w.fitReq, q, v); err != nil {
		return err
	}
	var pts int64
	for _, o := range rec.main {
		pts += o.pts
	}
	v["wire.json_points"] = float64(pts)
	v["wire.json_bytes_per_pt"] = ratio(float64(tr.sent[roleReader].Load()+tr.recv[roleReader].Load()), float64(pts))
	return nil
}

// serviceWrites replays the writer cycle in-process on a fresh Service
// holding the same window: AppendPoints, Fit and Sweep.
func (w *windowRing) serviceWrites(tr *tracer, ds *geom.Dataset, p core.Params, v map[string]float64) error {
	svc := service.New(service.Options{Workers: w.cfg.procs, Drift: defaultDrift(), Window: int64(w.window)})
	if _, err := svc.PutDataset(ringKey, ds); err != nil {
		return err
	}
	if _, err := svc.Fit(ringKey, w.fitReq.Algorithm, p); err != nil {
		return err
	}
	if _, err := svc.Sweep(w.sweepReq); err != nil {
		return err
	}
	// One timed cycle: a sweep takes about as long as the traced half of
	// the drive, and the whole run must stay within the benchmark's time.
	batch := w.appends[w.next%len(w.appends)]
	var err error
	app := tr.timed("service.append", func() { _, err = svc.AppendPoints(ringKey, batch) })
	if err != nil {
		return err
	}
	fit := tr.timed("service.fit", func() { _, err = svc.Fit(ringKey, w.fitReq.Algorithm, p) })
	if err != nil {
		return err
	}
	sweep := tr.timed("service.sweep", func() { _, err = svc.Sweep(w.sweepReq) })
	if err != nil {
		return err
	}
	v["service.append_ms"] = ms(app)
	v["service.fit_ms"] = ms(fit)
	v["service.sweep_s"] = sweep.Seconds()
	return nil
}

// indexLayers times the density index the sweeps use: a build at the
// sweep's largest d_cut, one sliding-window update, and the cuts.
func (w *windowRing) indexLayers(tr *tracer, ds *geom.Dataset, v map[string]float64) error {
	const maxEdges = 1 << 25 // the service default
	ceil := w.sweepReq.Settings[len(w.sweepReq.Settings)-1].DCut
	var idx *densindex.Index
	var err error
	b := medianTimed(tr, "densindex.build", 3, func() { idx, err = densindex.Build(ds, ceil, w.cfg.procs, maxEdges) })
	if err != nil {
		return err
	}
	v["densindex.build_s"] = b.Seconds()
	v["densindex.edges"] = float64(idx.Edges())

	batch := w.appends[w.next%len(w.appends)]
	next := geom.NewDataset(append(slices.Clone(ds.Coords[len(batch)*w.dim:]), slices.Concat(batch...)...), w.dim)
	u := medianTimed(tr, "densindex.update", 3, func() {
		_, err = densindex.Update(idx, next, len(batch), len(batch), w.cfg.procs, maxEdges)
	})
	if err != nil {
		return err
	}
	v["densindex.update_ms"] = ms(u)

	var cuts []time.Duration
	for _, st := range w.sweepReq.Settings {
		p := core.Params{DCut: st.DCut, RhoMin: st.RhoMin, DeltaMin: st.DeltaMin, Workers: w.cfg.procs}
		cuts = append(cuts, tr.timed("densindex.cut", func() { _, err = idx.Cut(p) }))
		if err != nil {
			return err
		}
	}
	v["densindex.cut_ms"] = ms(medianDur(cuts))
	return nil
}

func (w *windowRing) close() {
	for _, n := range w.nodes {
		n.close()
	}
}
