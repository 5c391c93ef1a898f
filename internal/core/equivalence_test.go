package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestFlatRowsEquivalence is the behavior-preservation contract of the
// flat-dataset refactor: for each of the seven evaluated algorithms (and
// the three dropped competitors), the [][]float64 entry point (one
// row-pack copy) and the flat ClusterDataset entry point must produce
// byte-identical Result fields — Rho, Delta, Dep, Centers, and Labels —
// because they traverse the same coordinates in the same order.
func TestFlatRowsEquivalence(t *testing.T) {
	for _, d := range []int{2, 3} {
		rng := rand.New(rand.NewSource(int64(100 + d)))
		rows := equivBlobs(rng, 900, d)
		ds := geom.MustFromRows(rows)
		p := Params{DCut: 12, RhoMin: 3, DeltaMin: 40, Workers: 4, Epsilon: 0.8, Seed: 1}
		for _, alg := range equivAlgs() {
			fromRows, err := alg.Cluster(rows, p)
			if err != nil {
				t.Fatalf("%s rows (d=%d): %v", alg.Name(), d, err)
			}
			fromFlat, err := alg.ClusterDataset(ds, p)
			if err != nil {
				t.Fatalf("%s flat (d=%d): %v", alg.Name(), d, err)
			}
			compareResults(t, alg.Name(), d, fromRows, fromFlat)
		}
	}
}

func compareResults(t *testing.T, name string, d int, a, b *Result) {
	t.Helper()
	if len(a.Rho) != len(b.Rho) {
		t.Fatalf("%s (d=%d): result sizes differ", name, d)
	}
	for i := range a.Rho {
		if a.Rho[i] != b.Rho[i] {
			t.Fatalf("%s (d=%d): Rho[%d] %v != %v", name, d, i, a.Rho[i], b.Rho[i])
		}
		// Compare Delta bit-exactly, treating equal infinities as equal.
		if a.Delta[i] != b.Delta[i] && !(math.IsInf(a.Delta[i], 1) && math.IsInf(b.Delta[i], 1)) {
			t.Fatalf("%s (d=%d): Delta[%d] %v != %v", name, d, i, a.Delta[i], b.Delta[i])
		}
		if a.Dep[i] != b.Dep[i] {
			t.Fatalf("%s (d=%d): Dep[%d] %d != %d", name, d, i, a.Dep[i], b.Dep[i])
		}
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("%s (d=%d): Labels[%d] %d != %d", name, d, i, a.Labels[i], b.Labels[i])
		}
	}
	if len(a.Centers) != len(b.Centers) {
		t.Fatalf("%s (d=%d): %d vs %d centers", name, d, len(a.Centers), len(b.Centers))
	}
	for i := range a.Centers {
		if a.Centers[i] != b.Centers[i] {
			t.Fatalf("%s (d=%d): Centers[%d] %d != %d", name, d, i, a.Centers[i], b.Centers[i])
		}
	}
}

// equivBlobs generates a few well-separated Gaussian blobs plus stray
// noise — enough structure that every algorithm exercises its center,
// label, and noise paths.
func equivBlobs(rng *rand.Rand, n, d int) [][]float64 {
	centers := make([][]float64, 5)
	for c := range centers {
		ctr := make([]float64, d)
		for j := range ctr {
			ctr[j] = float64(c+1) * 150
		}
		ctr[0] = float64((c%3)+1) * 180
		centers[c] = ctr
	}
	rows := make([][]float64, 0, n)
	for len(rows) < n {
		p := make([]float64, d)
		if rng.Float64() < 0.03 {
			for j := range p {
				p[j] = rng.Float64() * 800
			}
		} else {
			c := centers[rng.Intn(len(centers))]
			for j := range p {
				p[j] = c[j] + rng.NormFloat64()*5
			}
		}
		rows = append(rows, p)
	}
	return rows
}

// equivAlgs is the grid the equivalence gates run over: every evaluated
// algorithm plus the dropped competitors.
func equivAlgs() []Algorithm {
	return []Algorithm{
		Scan{}, RtreeScan{}, LSHDDP{}, CFSFDPA{},
		ExDPC{}, ApproxDPC{}, SApproxDPC{},
		FastDPeak{}, DPCG{}, CFSFDPDE{},
	}
}

// TestParallelSerialEquivalence gates the parallel fit phases: one
// worker against several must be byte-identical for every algorithm —
// the parallel density and dependency passes use deterministic
// partitioning and tie-breaking, so the schedule never leaks into the
// result. Worker counts that do not divide n exercise the remainder
// blocks.
func TestParallelSerialEquivalence(t *testing.T) {
	for _, d := range []int{2, 4} {
		rng := rand.New(rand.NewSource(int64(400 + d)))
		rows := equivBlobs(rng, 901, d)
		ds := geom.MustFromRows(rows)
		base := Params{DCut: 12, RhoMin: 3, DeltaMin: 40, Epsilon: 0.8, Seed: 1}
		for _, alg := range equivAlgs() {
			serialP := base
			serialP.Workers = 1
			serial, err := alg.ClusterDataset(ds, serialP)
			if err != nil {
				t.Fatalf("%s serial (d=%d): %v", alg.Name(), d, err)
			}
			for _, workers := range []int{3, 7} {
				parP := base
				parP.Workers = workers
				par, err := alg.ClusterDataset(ds, parP)
				if err != nil {
					t.Fatalf("%s workers=%d (d=%d): %v", alg.Name(), workers, d, err)
				}
				compareResults(t, alg.Name()+" parallel-vs-serial", d, serial, par)
			}
		}
	}
}

// TestFloat32Tolerance bounds what narrowing a dataset to float32 may
// change. The f32 kernels widen each stored element back to float64
// exactly, so the only way labels can move is a pair whose true distance
// sits so close to d_cut that the storage rounding pushes it across —
// a dc-boundary tie. The test counts those crossing pairs directly; with
// none, results must be byte-identical, and with crossings the label
// disagreement must stay proportionate to them instead of cascading.
func TestFloat32Tolerance(t *testing.T) {
	for _, d := range []int{2, 4} {
		rng := rand.New(rand.NewSource(int64(500 + d)))
		rows := equivBlobs(rng, 800, d)
		ds := geom.MustFromRows(rows)
		ds32 := ds.ToFloat32()
		p := Params{DCut: 12, RhoMin: 3, DeltaMin: 40, Workers: 4, Seed: 1}

		// Count pairs whose in-range verdict flips under f32 storage.
		dc2 := p.DCut * p.DCut
		crossings := 0
		for i := int32(0); i < int32(ds.N); i++ {
			for j := i + 1; j < int32(ds.N); j++ {
				in64 := geom.SqDistIdx(ds, i, j) <= dc2
				in32 := geom.SqDistIdx(ds32, i, j) <= dc2
				if in64 != in32 {
					crossings++
				}
			}
		}

		for _, alg := range []Algorithm{Scan{}, ExDPC{}} {
			r64, err := alg.ClusterDataset(ds, p)
			if err != nil {
				t.Fatalf("%s f64 (d=%d): %v", alg.Name(), d, err)
			}
			r32, err := alg.ClusterDataset(ds32, p)
			if err != nil {
				t.Fatalf("%s f32 (d=%d): %v", alg.Name(), d, err)
			}
			disagree := 0
			for i := range r64.Labels {
				if r64.Labels[i] != r32.Labels[i] {
					disagree++
				}
			}
			if crossings == 0 && disagree != 0 {
				t.Fatalf("%s (d=%d): %d label disagreements with zero dc-boundary crossings",
					alg.Name(), d, disagree)
			}
			// A crossing flips at most one point's density membership; allow
			// each to carry its dependency subtree but never a blowup.
			if limit := 25 * crossings; disagree > limit {
				t.Fatalf("%s (d=%d): %d label disagreements exceed the %d budget of %d boundary crossings",
					alg.Name(), d, disagree, limit, crossings)
			}
		}
	}
}
