package main

import (
	"encoding/json"
	"math/rand"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/persist"
	"repro/internal/wire"
)

// The replay helpers time one layer's public entry point on a
// workload's own inputs. Each timed call is a span of the traced run;
// the reported value is the median over reps calls.

var sink float64 // keeps replayed results alive

// medianTimed runs fn reps times, each as a traced span, and returns the
// median duration.
func medianTimed(tr *tracer, name string, reps int, fn func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		ds[i] = tr.timed(name, fn)
	}
	return medianDur(ds)
}

// sqdistNs is the dispatched SqDistIdx cost per call over random row
// pairs of ds.
func sqdistNs(tr *tracer, ds *geom.Dataset, seed int64) float64 {
	const pairs = 1 << 15
	rng := rand.New(rand.NewSource(seed))
	is, js := make([]int32, pairs), make([]int32, pairs)
	for k := range is {
		is[k], js[k] = int32(rng.Intn(ds.N)), int32(rng.Intn(ds.N))
	}
	d := medianTimed(tr, "geom.sqdist", 5, func() {
		s := 0.0
		for k := range is {
			s += geom.SqDistIdx(ds, is[k], js[k])
		}
		sink += s
	})
	return float64(d.Nanoseconds()) / pairs
}

// treeLayers times kd-tree construction over ds, RangeCount at dcut and
// NN, each over up to 2048 of the queries. It returns build ms, and
// range-count and NN µs per query.
func treeLayers(tr *tracer, ds *geom.Dataset, dcut float64, queries [][]float64) (buildMs, rangeUs, nnUs float64) {
	var t *kdtree.Tree
	build := medianTimed(tr, "kdtree.build", 3, func() { t = kdtree.BuildAll(ds) })
	qs := queries[:min(len(queries), 2048)]
	rc := medianTimed(tr, "kdtree.range_count", 3, func() {
		n := 0
		for _, q := range qs {
			n += t.RangeCount(q, dcut)
		}
		sink += float64(n)
	})
	nn := medianTimed(tr, "kdtree.nn", 3, func() {
		for _, q := range qs {
			_, d := t.NN(q)
			sink += d
		}
	})
	per := float64(len(qs)) * float64(time.Microsecond)
	return ms(build), float64(rc) / per, float64(nn) / per
}

// gridBuildMs times grid.Build at the cell side Approx-DPC uses for dcut.
func gridBuildMs(tr *tracer, ds *geom.Dataset, dcut float64) float64 {
	side := grid.SideForDCut(dcut, ds.Dim)
	return ms(medianTimed(tr, "grid.build", 3, func() { sink += float64(grid.Build(ds, side).NumCells()) }))
}

// assignLayers times the model's own labeling of one batch and the
// drift tracker's observation of it, the two library calls inside
// Service.Assign.
func assignLayers(tr *tracer, m *core.Model, batch [][]float64, workers int, v map[string]float64) error {
	qs, err := geom.FromRows(batch)
	if err != nil {
		return err
	}
	var labels []int32
	var aerr error
	d := medianTimed(tr, "core.assign", 5, func() { labels, aerr = m.AssignDataset(qs, workers) })
	if aerr != nil {
		return aerr
	}
	v["core.assign_ms"] = ms(d)
	cfg := defaultDrift()
	stride := cfg.SampleStride()
	var halo int64
	samples := make([]float64, 0, len(batch)/stride+1)
	for i, l := range labels {
		if l == core.NoCluster {
			halo++
		}
		if i%stride == 0 {
			samples = append(samples, m.CenterDist(batch[i], l))
		}
	}
	t := drift.NewTracker(*cfg, drift.NewReference(m.ReferenceDists(cfg.MaxRefSample)))
	obs := medianTimed(tr, "drift.observe", 51, func() { t.ObserveSampled(int64(len(batch)), halo, samples) })
	v["drift.observe_us"] = float64(obs) / float64(time.Microsecond)
	return nil
}

// wireLayers times the frame codec on one batch (encode as a client
// sends it, decode as a server reads it) and the JSON request decode.
func wireLayers(tr *tracer, req api.FitRequest, batch [][]float64, v map[string]float64) error {
	var body []byte
	enc := medianTimed(tr, "wire.frames_encode", 21, func() {
		body = wire.AppendPointsRows(wire.AppendHeader(nil, frameHeader(req)), batch, false)
	})
	var derr error
	dec := medianTimed(tr, "wire.frames_decode", 21, func() {
		rest := body
		for len(rest) > 0 && derr == nil {
			_, rest, derr = wire.DecodeFrame(rest)
		}
	})
	if derr != nil {
		return derr
	}
	raw, err := json.Marshal(api.AssignRequest{FitRequest: req, Points: batch})
	if err != nil {
		return err
	}
	var jerr error
	jdec := medianTimed(tr, "wire.json_decode", 21, func() {
		var r api.AssignRequest
		jerr = json.Unmarshal(raw, &r)
	})
	if jerr != nil {
		return jerr
	}
	us := float64(time.Microsecond)
	v["wire.frames_encode_us"] = float64(enc) / us
	v["wire.frames_decode_us"] = float64(dec) / us
	v["wire.json_decode_us"] = float64(jdec) / us
	return nil
}

// frameHeader is the header frame of an assign request.
func frameHeader(req api.FitRequest) wire.Header {
	p := req.Params
	return wire.Header{
		Dataset: req.Dataset, Algorithm: req.Algorithm,
		DCut: p.DCut, RhoMin: p.RhoMin, DeltaMin: p.DeltaMin, Epsilon: p.Epsilon, Seed: p.Seed,
	}
}

// persistLayers times the snapshot codec on a dataset.
func persistLayers(tr *tracer, name string, ds *geom.Dataset, v map[string]float64) error {
	var raw []byte
	enc := medianTimed(tr, "persist.encode", 5, func() { raw = persist.EncodeDataset(name, 1, ds) })
	var derr error
	dec := medianTimed(tr, "persist.decode", 5, func() { _, derr = persist.DecodeSnapshot(raw) })
	if derr != nil {
		return derr
	}
	v["persist.encode_ms"] = ms(enc)
	v["persist.decode_ms"] = ms(dec)
	v["persist.snapshot_bytes"] = float64(len(raw))
	return nil
}
