package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/service"
	"repro/internal/wire"
)

// serve-assign: one dpcd serving an Ex-DPC model of PAMAP2Like. Client A
// (main) sends batch frame assigns, client B (side) long frame streams.

type serveAssign struct {
	cfg config
	tr  *tracer
	n   *node
	req api.FitRequest

	model   *core.Model
	batches [][][]float64 // query pool, fresh points of the training distribution
	refs    [][]int32     // Model.AssignDataset labels per batch
	frames  []byte        // every batch as one points frame, in order
	frameSz int           // bytes per batch frame
	perStr  int           // batches per stream

	a, b   *service.Client
	rng    *rand.Rand
	strOff int // first batch of the next stream
}

func setupServeAssign(cfg config, tr *tracer, rec *recorder) (instance, error) {
	nTrain, batch := cfg.size(50000, 2000), cfg.size(4096, 64)
	const pool = 64
	all := draw(data.PAMAP2Like, 2*(nTrain+pool*batch), nTrain+pool*batch, cfg.seed)
	dim := all.Points.Dim
	train := geom.NewDataset(slices.Clone(all.Points.Coords[:nTrain*dim]), dim)
	s := &serveAssign{
		cfg: cfg, tr: tr,
		req: api.FitRequest{Dataset: "pamap2", Algorithm: "Ex-DPC",
			Params: api.Params{DCut: all.DCut, RhoMin: all.RhoMin, DeltaMin: all.DeltaMin}},
		rng:    rand.New(rand.NewSource(cfg.seed + 1)),
		perStr: max(cfg.size(1<<20, 1024)/batch, 1),
	}
	for k := 0; k < pool; k++ {
		rows := make([][]float64, batch)
		for i := range rows {
			rows[i] = all.Points.At(nTrain + k*batch + i)
		}
		s.batches = append(s.batches, rows)
	}

	var err error
	if s.n, err = bootSingle(service.Options{Workers: cfg.procs, Drift: defaultDrift()}, tr); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			s.n.close()
		}
	}()
	s.a = service.NewClient(s.n.base, service.ClientOptions{})
	s.b = service.NewClient(s.n.base, service.ClientOptions{})
	var up bytes.Buffer
	if err := data.SaveBinary(&up, train); err != nil {
		return nil, err
	}
	if _, err := s.a.PutDataset(s.req.Dataset, "binary", up.Bytes()); err != nil {
		return nil, err
	}
	if _, err := s.a.Fit(s.req); err != nil {
		return nil, err
	}

	// Reference labels from an independent local fit of the same data.
	alg, _ := core.AlgorithmByName(s.req.Algorithm)
	p := core.Params{DCut: all.DCut, RhoMin: all.RhoMin, DeltaMin: all.DeltaMin, Workers: cfg.procs}
	if s.model, err = core.Fit(alg, train, p); err != nil {
		return nil, err
	}
	poolDS := geom.NewDataset(all.Points.Coords[nTrain*dim:], dim)
	labels, err := s.model.AssignDataset(poolDS, cfg.procs)
	if err != nil {
		return nil, err
	}
	for k := range s.batches {
		s.refs = append(s.refs, labels[k*batch:(k+1)*batch])
		before := len(s.frames)
		s.frames = wire.AppendPointsRows(s.frames, s.batches[k], false)
		s.frameSz = len(s.frames) - before
	}
	ok = true
	return s, nil
}

func (s *serveAssign) drive(rec *recorder, d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			s.batchOp(rec)
		}
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			s.streamOp(rec)
		}
	}()
	wg.Wait()
}

func (s *serveAssign) batchOp(rec *recorder) {
	k := s.rng.Intn(len(s.batches))
	op := s.tr.begin(roleReader)
	start := time.Now()
	resp, err := s.a.AssignFrames(s.req, s.batches[k], false)
	end := time.Now()
	s.tr.add(op, "client.assign", "", start, end)
	rec.add(classMain, "", end.Sub(start), int64(len(s.batches[k])))
	switch {
	case err != nil:
		rec.fail("batch assign: %v", err)
	case !slices.Equal(corrupt(s.cfg, resp.Labels), s.refs[k]):
		rec.fail("batch assign: labels differ from Model.AssignDataset on batch %d", k)
	default:
		rec.done(classMain, int64(len(resp.Labels)))
	}
}

// streamOp sends one stream of perStr batches, starting where the last
// stream stopped in the pool, and checks every label as it arrives.
func (s *serveAssign) streamOp(rec *recorder) {
	first := s.strOff
	s.strOff = (s.strOff + s.perStr) % len(s.batches)
	body := &cycleReader{buf: s.frames, off: first * s.frameSz, left: s.perStr * s.frameSz}
	op := s.tr.begin(roleStream)
	start := time.Now()
	got, err := s.stream(rec, body, first)
	end := time.Now()
	s.tr.add(op, "client.stream", "", start, end)
	rec.add(classSide, "", end.Sub(start), int64(got))
	if err != nil {
		rec.fail("stream: %v", err)
	}
}

func (s *serveAssign) stream(rec *recorder, body io.Reader, first int) (int, error) {
	sr, err := s.b.AssignStreamFrames(s.req, body)
	if err != nil {
		return 0, err
	}
	defer sr.Close()
	batch := len(s.batches[0])
	got := 0
	for {
		chunk, err := sr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return got, err
		}
		for i, l := range corrupt(s.cfg, chunk) {
			at := got + i
			if want := s.refs[(first+at/batch)%len(s.refs)][at%batch]; l != want {
				return got, fmt.Errorf("label %d is %d, Model.AssignDataset says %d", at, l, want)
			}
		}
		got += len(chunk)
		rec.done(classSide, int64(len(chunk)))
	}
	if want := s.perStr * batch; got != want {
		return got, fmt.Errorf("stream returned %d labels for %d points", got, want)
	}
	return got, nil
}

// cycleReader reads left bytes of buf starting at off, wrapping around.
type cycleReader struct {
	buf       []byte
	off, left int
}

func (c *cycleReader) Read(p []byte) (int, error) {
	if c.left == 0 {
		return 0, io.EOF
	}
	c.off %= len(c.buf)
	n := copy(p[:min(len(p), c.left)], c.buf[c.off:])
	c.off += n
	c.left -= n
	return n, nil
}

func (s *serveAssign) counters() (counters, error) {
	st, err := s.a.LocalStats()
	return counters{Stats: st}, err
}

func (s *serveAssign) verify(rec *recorder) {}

// summary reports both clients' points per second as median seconds:
// batches count when answered, streams per label chunk. The batch p99 is
// the median of five windows' p99: on a shared machine the tail comes in
// bursts of a second or two, and five windows keep one or two bursts
// out of the median.
func (s *serveAssign) summary(rec *recorder, d time.Duration) (main, side opStats) {
	main, side = summarize(rec.main), summarize(rec.side)
	main.windowP99(rec.main, d, 5)
	main.ptsPerS, side.ptsPerS = rec.rate(classMain, d), rec.rate(classSide, d)
	return main, side
}

func (s *serveAssign) named(rec *recorder, d time.Duration) []named {
	main, side := s.summary(rec, d)
	return []named{
		{"assign_p50_ms", ms(main.p50), "ms"},
		{"assign_p99_ms", ms(main.p99), "ms"},
		{"assign_pts_per_s", main.ptsPerS, "pts/s"},
		{"stream_pts_per_s", side.ptsPerS, "pts/s"},
	}
}

func (s *serveAssign) layers(rec *recorder, tr *tracer, v map[string]float64) error {
	ds := s.model.Dataset()
	v["geom.sqdist_ns.d4"] = sqdistNs(tr, ds, s.cfg.seed)
	v["kdtree.build_ms"], v["kdtree.range_count_us"], v["kdtree.nn_us"] = treeLayers(tr, ds, s.req.Params.DCut, s.batches[0])
	q := s.batches[0]
	if err := assignLayers(tr, s.model, q, s.cfg.procs, v); err != nil {
		return err
	}
	p := core.Params{DCut: s.req.Params.DCut, RhoMin: s.req.Params.RhoMin, DeltaMin: s.req.Params.DeltaMin}
	var aerr error
	d := medianTimed(tr, "service.assign", 5, func() { _, _, aerr = s.n.svc.Assign(s.req.Dataset, s.req.Algorithm, p, q) })
	if aerr != nil {
		return aerr
	}
	v["service.assign_ms"] = ms(d)
	if err := wireLayers(tr, s.req, q, v); err != nil {
		return err
	}
	var pts int64
	for _, o := range append(slices.Clone(rec.main), rec.side...) {
		pts += o.pts
	}
	bytes := tr.sent[roleReader].Load() + tr.recv[roleReader].Load() + tr.sent[roleStream].Load() + tr.recv[roleStream].Load()
	v["wire.frames_points"] = float64(pts)
	v["wire.frames_bytes_per_pt"] = ratio(float64(bytes), float64(pts))
	return nil
}

func (s *serveAssign) close() { s.n.close() }
