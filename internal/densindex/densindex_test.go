package densindex

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
)

// dcGrid is the re-cut sweep used throughout: 9 cut distances spanning
// a 4x range around the S2 default (2500), all below the build ceiling.
var dcGrid = []float64{1200, 1600, 2000, 2400, 2500, 2800, 3200, 4000, 4800}

const dcCeiling = 4800

// sameBits requires exact float64 bit equality — the index's contract
// is byte-identity with a fresh fit, not approximate agreement.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (bits %x), want %v (bits %x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameInt32(t *testing.T, what string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestCutMatchesFreshFit is the core byte-identity guarantee: for every
// covered algorithm and every d_cut on the grid, a re-cut of one index
// built at the ceiling reproduces a fresh fit exactly — densities,
// dependent distances, dependent points, labels, and centers.
func TestCutMatchesFreshFit(t *testing.T) {
	d := data.SSet(2, 1500, 7)
	idx, err := Build(d.Points, dcCeiling, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range CoveredAlgorithms() {
		alg, ok := core.AlgorithmByName(name)
		if !ok {
			t.Fatalf("covered algorithm %q is unknown to core", name)
		}
		for _, dc := range dcGrid {
			t.Run(fmt.Sprintf("%s/dc=%g", name, dc), func(t *testing.T) {
				p := core.Params{DCut: dc, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: 4}
				if p.DeltaMin <= p.DCut {
					p.DeltaMin = p.DCut * 3
				}
				want, err := alg.ClusterDataset(d.Points, p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := idx.Cut(p)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "rho", got.Rho, want.Rho)
				sameBits(t, "delta", got.Delta, want.Delta)
				sameInt32(t, "dep", got.Dep, want.Dep)
				sameInt32(t, "labels", got.Labels, want.Labels)
				sameInt32(t, "centers", got.Centers, want.Centers)
			})
		}
	}
}

// TestCutSerialMatchesParallel pins the worker-count independence the
// service relies on: the same cut with 1 worker and many workers is
// bit-identical (the kernels only partition iteration, never change
// float op order within a point).
func TestCutSerialMatchesParallel(t *testing.T) {
	d := data.SSet(2, 800, 3)
	idx, err := Build(d.Points, 3000, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	p1 := core.Params{DCut: 2500, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: 1}
	p8 := p1
	p8.Workers = 8
	a, err := idx.Cut(p1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := idx.Cut(p8)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "rho", a.Rho, b.Rho)
	sameBits(t, "delta", a.Delta, b.Delta)
	sameInt32(t, "labels", a.Labels, b.Labels)
}

func TestCutRejectsBeyondCeiling(t *testing.T) {
	d := data.SSet(1, 300, 1)
	idx, err := Build(d.Points, 2000, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range []float64{2000.5, math.Inf(1), math.NaN(), -1, 0} {
		p := core.Params{DCut: dc, DeltaMin: 1e9}
		if _, err := idx.Cut(p); err == nil {
			t.Errorf("Cut accepted dcut %v beyond ceiling %v", dc, idx.DCutMax())
		}
	}
	// At exactly the ceiling the cut must work.
	if _, err := idx.Cut(core.Params{DCut: 2000, DeltaMin: 1e9}); err != nil {
		t.Errorf("Cut at the exact ceiling failed: %v", err)
	}
}

func TestBuildEdgeBudget(t *testing.T) {
	d := data.SSet(4, 400, 2)
	if _, err := Build(d.Points, 1e5, 2, 50); err == nil {
		t.Fatal("Build under an absurdly small edge budget succeeded")
	} else if !errors.Is(err, ErrTooDense) {
		t.Fatalf("budget overflow error %v does not unwrap to ErrTooDense", err)
	}
}

// TestFromPartsRoundTrip rebuilds an index from its own Parts and checks
// a cut agrees bit-for-bit — the persistence warm-load path in miniature.
func TestFromPartsRoundTrip(t *testing.T) {
	d := data.SSet(2, 600, 5)
	idx, err := Build(d.Points, 3000, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	dcMax, start, ids, sq := idx.Parts()
	idx2, err := FromParts(d.Points, dcMax, start, ids, sq)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{DCut: 2500, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: 2}
	a, err := idx.Cut(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := idx2.Cut(p)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "rho", a.Rho, b.Rho)
	sameBits(t, "delta", a.Delta, b.Delta)
	sameInt32(t, "labels", a.Labels, b.Labels)
}

func TestFromPartsRejectsDamage(t *testing.T) {
	d := data.SSet(1, 100, 4)
	idx, err := Build(d.Points, 5000, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	dcMax, start, ids, sq := idx.Parts()
	n := d.Points.N

	check := func(name string, mut func(start []int64, ids []int32, sq []float64)) {
		s2 := append([]int64(nil), start...)
		i2 := append([]int32(nil), ids...)
		q2 := append([]float64(nil), sq...)
		mut(s2, i2, q2)
		if _, err := FromParts(d.Points, dcMax, s2, i2, q2); err == nil {
			t.Errorf("%s: damaged parts accepted", name)
		}
	}

	check("self edge", func(_ []int64, ids []int32, _ []float64) {
		for r := 0; r < n; r++ {
			if start[r] < start[r+1] {
				ids[start[r]] = int32(r)
				return
			}
		}
		t.Skip("index has no edges")
	})
	check("id out of range", func(_ []int64, ids []int32, _ []float64) {
		if len(ids) == 0 {
			t.Skip("index has no edges")
		}
		ids[0] = int32(n)
	})
	check("descending row", func(_ []int64, _ []int32, sq []float64) {
		for r := 0; r < n; r++ {
			if start[r]+1 < start[r+1] {
				sq[start[r]] = sq[start[r]+1] + 1
				return
			}
		}
		t.Skip("no row with two edges")
	})
	check("NaN distance", func(_ []int64, _ []int32, sq []float64) {
		if len(sq) == 0 {
			t.Skip("index has no edges")
		}
		sq[0] = math.NaN()
	})
	check("distance beyond ceiling", func(_ []int64, _ []int32, sq []float64) {
		if len(sq) == 0 {
			t.Skip("index has no edges")
		}
		sq[len(sq)-1] = dcMax*dcMax + 1
	})
	check("offsets not monotone", func(start []int64, _ []int32, _ []float64) {
		start[1] = -1
	})
	if _, err := FromParts(d.Points, dcMax, start[:n], ids, sq); err == nil {
		t.Error("short offset array accepted")
	}
	_ = idx
}

// TestDecisionGolden pins the decision-graph vectors on a fixed seeded
// dataset: Decision must reproduce a fresh fit's rho/delta bit-for-bit,
// and thresholding them at the dataset defaults must recover exactly
// the centers the full clustering picks.
func TestDecisionGolden(t *testing.T) {
	d := data.SSet(2, 1200, 11)
	idx, err := Build(d.Points, 3000, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rho, delta, err := idx.Decision(d.DCut, 4)
	if err != nil {
		t.Fatal(err)
	}
	alg, ok := core.AlgorithmByName("Ex-DPC")
	if !ok {
		t.Fatal("Ex-DPC not registered")
	}
	p := core.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: 4}
	want, err := alg.ClusterDataset(d.Points, p)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "rho", rho, want.Rho)
	sameBits(t, "delta", delta, want.Delta)

	var centers []int32
	for i := range rho {
		if rho[i] > p.RhoMin && delta[i] > p.DeltaMin {
			centers = append(centers, int32(i))
		}
	}
	sameInt32(t, "thresholded centers", centers, want.Centers)
	if len(centers) == 0 {
		t.Fatal("golden dataset yields no centers at its default thresholds")
	}
}

func TestCovers(t *testing.T) {
	for _, name := range CoveredAlgorithms() {
		if !Covers(name) {
			t.Errorf("Covers(%q) = false for a listed algorithm", name)
		}
		if _, ok := core.AlgorithmByName(name); !ok {
			t.Errorf("covered algorithm %q does not resolve in core", name)
		}
	}
	for _, name := range []string{"Approx-DPC", "S-Approx-DPC", "LSH-DDP", "CFSFDP-DE", "nope"} {
		if Covers(name) {
			t.Errorf("Covers(%q) = true for an uncovered algorithm", name)
		}
	}
}

// treePathShare is the fraction of points a cut at dcut answers with
// the kd-tree search rather than from their stored lists.
func treePathShare(x *Index, dcut float64) float64 {
	n := x.N()
	order := core.DensityOrder(x.rho(dcut, 1), 1)
	rank := make([]int32, n)
	for r, i := range order {
		rank[i] = int32(r)
	}
	need := x.listDependents(order, rank, make([]float64, n), make([]int32, n), 1)
	k := 0
	for _, b := range need {
		if b {
			k++
		}
	}
	return float64(k) / float64(n)
}

// TestCutTreePathMatchesFreshFit covers the points a stored list cannot
// answer. On a noise-heavy AirlineLike sample a large share of points
// has no higher-density neighbor within the ceiling; their dependents
// come from the kd-tree search, and the cut must still equal Scan and
// Ex-DPC bit for bit, serial and parallel, across a d_cut grid.
func TestCutTreePathMatchesFreshFit(t *testing.T) {
	d := data.AirlineLike(3000, 3)
	grid := []float64{0.6 * d.DCut, 0.8 * d.DCut, d.DCut}
	idx, err := Build(d.Points, d.DCut, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range grid {
		share := treePathShare(idx, dc)
		t.Logf("dcut=%g: %.0f%% of points take the tree path", dc, 100*share)
		if share < 0.3 {
			t.Fatalf("dcut=%g: only %.0f%% of points take the tree path, want >= 30%%", dc, 100*share)
		}
		p := core.Params{DCut: dc, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Workers: 4}
		serial := p
		serial.Workers = 1
		cuts := map[string]*core.Result{}
		for name, q := range map[string]core.Params{"serial": serial, "parallel": p} {
			if cuts[name], err = idx.Cut(q); err != nil {
				t.Fatal(err)
			}
		}
		for _, alg := range []core.Algorithm{core.Scan{}, core.ExDPC{}} {
			want, err := alg.ClusterDataset(d.Points, p)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range cuts {
				what := fmt.Sprintf("%s cut vs %s at dcut=%g", name, alg.Name(), dc)
				sameBits(t, what+" rho", got.Rho, want.Rho)
				sameBits(t, what+" delta", got.Delta, want.Delta)
				sameInt32(t, what+" dep", got.Dep, want.Dep)
				sameInt32(t, what+" labels", got.Labels, want.Labels)
				sameInt32(t, what+" centers", got.Centers, want.Centers)
			}
		}
	}
}
