package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/geom"
)

// fit-paper: the paper's own workloads, library only. Each pass fits
// Ex-DPC (main), Approx-DPC and S-Approx-DPC at ε=1 (side) over the four
// real-dataset stand-ins.

var paperAlgs = []struct{ name, key string }{
	{"Ex-DPC", "exdpc"}, {"Approx-DPC", "approxdpc"}, {"S-Approx-DPC", "sapproxdpc"},
}

type fitPaper struct {
	cfg  config
	tr   *tracer
	sets []*data.Dataset
	keys []string
	algs []core.Algorithm

	passes int
	first  map[[2]int][]int32       // first pass labels per (dataset, algorithm)
	fitS   map[[2]int][]float64     // traced fit seconds
	timing map[[2]int][]core.Timing // traced phase timings
	randIx float64                  // min Rand index of S-Approx-DPC vs Ex-DPC
}

func paperParams(d *data.Dataset, workers int) core.Params {
	return core.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Epsilon: 1, Workers: workers}
}

func setupFitPaper(cfg config, tr *tracer, rec *recorder) (instance, error) {
	n, nSensor := cfg.size(50000, 1500), cfg.size(20000, 1500)
	f := &fitPaper{
		cfg: cfg, tr: tr,
		sets: []*data.Dataset{
			draw(data.AirlineLike, 4*n, n, cfg.seed), draw(data.HouseholdLike, 4*n, n, cfg.seed+1),
			draw(data.PAMAP2Like, 4*n, n, cfg.seed+2), draw(data.SensorLike, 4*nSensor, nSensor, cfg.seed+3),
		},
		keys:   []string{"airline", "household", "pamap2", "sensor"},
		first:  make(map[[2]int][]int32),
		fitS:   make(map[[2]int][]float64),
		timing: make(map[[2]int][]core.Timing),
		randIx: math.Inf(1),
	}
	for _, a := range paperAlgs {
		alg, ok := core.AlgorithmByName(a.name)
		if !ok {
			return nil, fmt.Errorf("algorithm %s not registered", a.name)
		}
		f.algs = append(f.algs, alg)
	}
	// Exactness gate: Ex-DPC equals brute-force Scan on a strided
	// subsample of every dataset.
	for i, d := range f.sets {
		sub := stride(d.Points, 1500)
		p := paperParams(d, cfg.procs)
		ex, err := f.algs[0].ClusterDataset(sub, p)
		if err != nil {
			return nil, err
		}
		sc, err := core.Scan{}.ClusterDataset(sub, p)
		if err != nil {
			return nil, err
		}
		rec.check(slices.Equal(corrupt(cfg, ex.Labels), sc.Labels), "%s: Ex-DPC labels differ from Scan on a %d-point subsample", f.keys[i], sub.N)
	}
	return f, nil
}

// stride returns about m rows of ds, evenly spaced.
func stride(ds *geom.Dataset, m int) *geom.Dataset {
	step := max(ds.N/m, 1)
	coords := make([]float64, 0, (ds.N/step+1)*ds.Dim)
	for i := 0; i < ds.N; i += step {
		coords = append(coords, ds.At(i)...)
	}
	return geom.NewDataset(coords, ds.Dim)
}

// corrupt returns labels, or in the tests' corrupt mode a copy with one
// label changed.
func corrupt(cfg config, labels []int32) []int32 {
	if !cfg.corrupt || len(labels) == 0 {
		return labels
	}
	out := slices.Clone(labels)
	out[len(out)/2]++
	return out
}

func (f *fitPaper) drive(rec *recorder, d time.Duration) {
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		f.pass(rec)
	}
}

// pass fits every algorithm on every dataset once and gates the results.
func (f *fitPaper) pass(rec *recorder) {
	first := f.passes == 0
	f.passes++
	for di, d := range f.sets {
		var ex *core.Result
		for ai, alg := range f.algs {
			op := f.tr.begin(roleWriter)
			start := time.Now()
			res, err := alg.ClusterDataset(d.Points, paperParams(d, f.cfg.procs))
			dur := time.Since(start)
			what := f.keys[di] + "/" + paperAlgs[ai].name
			class := classSide
			if ai == 0 {
				class = classMain
			}
			rec.add(class, what, dur, int64(d.Points.N))
			if err != nil {
				rec.fail("%s: %v", what, err)
				continue
			}
			key := [2]int{di, ai}
			if op != 0 {
				f.tr.add(op, "client.fit", "", start, start.Add(dur))
				t := res.Timing
				at := start
				for _, ph := range []struct {
					name string
					d    time.Duration
				}{{"core.build", t.Build}, {"core.rho", t.Rho}, {"core.delta", t.Delta}, {"core.label", t.Label}} {
					f.tr.add(op, ph.name, "", at, at.Add(ph.d))
					at = at.Add(ph.d)
				}
				f.fitS[key] = append(f.fitS[key], dur.Seconds())
				f.timing[key] = append(f.timing[key], t)
			}
			labels := res.Labels
			switch {
			case first:
				f.first[key] = labels
			case !slices.Equal(labels, f.first[key]):
				rec.fail("%s: labels differ from the first pass", what)
				continue
			}
			switch ai {
			case 0:
				ex = res
			case 1:
				if ex != nil && !sameSet(ex.Centers, res.Centers) {
					rec.fail("%s: centers differ from Ex-DPC (Theorem 4)", what)
				}
			case 2:
				if first && ex != nil {
					f.randIx = min(f.randIx, eval.RandIndex(ex.Labels, labels))
				}
			}
		}
	}
}

func sameSet(a, b []int32) bool {
	x, y := slices.Clone(a), slices.Clone(b)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}

func (f *fitPaper) counters() (counters, error) { return counters{}, nil }

func (f *fitPaper) verify(rec *recorder) {
	rec.check(f.passes > 0, "fit-paper: no pass completed")
}

func (f *fitPaper) summary(rec *recorder, d time.Duration) (main, side opStats) {
	return summarizeKeyed(rec.main), summarizeKeyed(rec.side)
}

func (f *fitPaper) named(rec *recorder, d time.Duration) []named {
	all := summarizeKeyed(append(slices.Clone(rec.main), rec.side...))
	return []named{
		{"fit_pts_per_s", all.ptsPerS, "pts/s"},
		{"rand_index_sapprox", f.randIx, "ratio"},
	}
}

func (f *fitPaper) layers(rec *recorder, tr *tracer, v map[string]float64) error {
	var d4 []float64
	var buildMs, rangeUs, nnUs, gridMs float64
	for i, d := range f.sets {
		ns := sqdistNs(tr, d.Points, f.cfg.seed+int64(i))
		switch d.Points.Dim {
		case 3:
			v["geom.sqdist_ns.d3"] = ns
		case 4:
			d4 = append(d4, ns)
		case 8:
			v["geom.sqdist_ns.d8"] = ns
		}
		qs := perturb(d.Points, 2048, d.DCut/4, f.cfg.seed+int64(i))
		b, r, n := treeLayers(tr, d.Points, d.DCut, qs)
		buildMs += b
		rangeUs += r / float64(len(f.sets))
		nnUs += n / float64(len(f.sets))
		gridMs += gridBuildMs(tr, d.Points, d.DCut)
	}
	v["geom.sqdist_ns.d4"] = median(d4)
	v["kdtree.build_ms"], v["kdtree.range_count_us"], v["kdtree.nn_us"] = buildMs, rangeUs, nnUs
	v["grid.build_ms"] = gridMs

	for ai, a := range paperAlgs {
		for di, key := range f.keys {
			k := [2]int{di, ai}
			ts := f.timing[k]
			phase := func(get func(core.Timing) time.Duration) float64 {
				vs := make([]float64, len(ts))
				for i, t := range ts {
					vs[i] = get(t).Seconds()
				}
				return median(vs)
			}
			v["core."+a.key+".build_s"] += phase(func(t core.Timing) time.Duration { return t.Build })
			v["core."+a.key+".rho_s"] += phase(func(t core.Timing) time.Duration { return t.Rho })
			v["core."+a.key+".delta_s"] += phase(func(t core.Timing) time.Duration { return t.Delta })
			v["core."+a.key+".label_s"] += phase(func(t core.Timing) time.Duration { return t.Label })
			v["core."+key+"."+a.key+".fit_s"] = median(f.fitS[k])
		}
	}
	// Ex-DPC thread scaling on PAMAP2: the traced fits ran with all
	// workers; one more fit with a single worker is the serial baseline.
	pamap := f.sets[2]
	p1 := paperParams(pamap, 1)
	var err error
	serial := tr.timed("core.exdpc.serial", func() { _, err = f.algs[0].ClusterDataset(pamap.Points, p1) })
	if err != nil {
		return err
	}
	if par := median(f.fitS[[2]int{2, 0}]); par > 0 {
		v["core.exdpc.speedup_2w"] = serial.Seconds() / par
	}
	v["core.rand_index_sapprox"] = f.randIx
	return nil
}

// perturb returns k rows of ds moved by Gaussian noise of the given
// scale: fresh points near the data, as out-of-sample queries.
func perturb(ds *geom.Dataset, k int, scale float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, k)
	for i := range out {
		row := slices.Clone(ds.At(rng.Intn(ds.N)))
		for j := range row {
			row[j] += rng.NormFloat64() * scale
		}
		out[i] = row
	}
	return out
}

func (f *fitPaper) close() {}
