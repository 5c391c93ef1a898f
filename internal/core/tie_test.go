package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/densindex"
	"repro/internal/geom"
)

// tieData draws three Gaussian blobs and a uniform background, snaps
// every coordinate to the integer grid, and duplicates a tenth of the
// points: exact distance ties between candidate dependents are then
// common rather than a measure-zero accident.
func tieData(n int, seed int64) *geom.Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := [][2]float64{{20, 20}, {60, 25}, {40, 60}}
	coords := make([]float64, 0, 2*n)
	for len(coords) < 2*n*9/10 {
		var x, y float64
		if rng.Intn(10) == 0 {
			x, y = rng.Float64()*80, rng.Float64()*80
		} else {
			c := centers[rng.Intn(len(centers))]
			x, y = c[0]+rng.NormFloat64()*6, c[1]+rng.NormFloat64()*6
		}
		coords = append(coords, math.Floor(x), math.Floor(y))
	}
	for len(coords) < 2*n {
		k := rng.Intn(len(coords) / 2)
		coords = append(coords, coords[2*k], coords[2*k+1])
	}
	return geom.NewDataset(coords, 2)
}

// tiedDependents counts the points with two or more higher-density
// points at exactly their dependent distance — the points whose Dep a
// tie rule decides.
func tiedDependents(ds *geom.Dataset, res *core.Result) int {
	order := core.DensityOrder(res.Rho, 1)
	tied := 0
	for r := 1; r < len(order); r++ {
		i := order[r]
		sq := res.Delta[i] * res.Delta[i]
		at := 0
		for _, j := range order[:r] {
			if geom.SqDistIdx(ds, i, j) == sq {
				at++
			}
		}
		if at > 1 {
			tied++
		}
	}
	return tied
}

func sameResult(t *testing.T, what string, got, want *core.Result) {
	t.Helper()
	for i := range want.Rho {
		if math.Float64bits(got.Rho[i]) != math.Float64bits(want.Rho[i]) {
			t.Fatalf("%s: Rho[%d] = %v, want %v", what, i, got.Rho[i], want.Rho[i])
		}
		if math.Float64bits(got.Delta[i]) != math.Float64bits(want.Delta[i]) {
			t.Fatalf("%s: Delta[%d] = %v, want %v", what, i, got.Delta[i], want.Delta[i])
		}
		if got.Dep[i] != want.Dep[i] {
			t.Fatalf("%s: Dep[%d] = %d, want %d", what, i, got.Dep[i], want.Dep[i])
		}
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("%s: Labels[%d] = %d, want %d", what, i, got.Labels[i], want.Labels[i])
		}
	}
	if !slices.Equal(got.Centers, want.Centers) {
		t.Fatalf("%s: Centers = %v, want %v", what, got.Centers, want.Centers)
	}
}

// TestExactTieContract pins the tie rule every exact dependent-point
// search shares: among equally near higher-density points the earliest
// in density order wins. Scan's brute-force prefix scan defines it;
// Ex-DPC's kd-tree search and a density-index re-cut must reproduce
// Scan bit for bit — Rho, Delta, Dep, Labels and Centers — on data
// where ties decide many dependents, at every worker count.
func TestExactTieContract(t *testing.T) {
	ds := tieData(1500, 5)
	dcuts := []float64{2, 3, 4.5, 6}
	idx, err := densindex.Build(ds, dcuts[len(dcuts)-1], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		for _, dc := range dcuts {
			p := core.Params{DCut: dc, RhoMin: 3, DeltaMin: 15, Workers: w}
			scan, err := core.Scan{}.ClusterDataset(ds, p)
			if err != nil {
				t.Fatal(err)
			}
			if tied := tiedDependents(ds, scan); tied < 100 {
				t.Fatalf("dcut=%g: only %d tie-decided dependents; the data no longer tests ties", dc, tied)
			}
			ex, err := core.ExDPC{}.ClusterDataset(ds, p)
			if err != nil {
				t.Fatal(err)
			}
			cut, err := idx.Cut(p)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("Ex-DPC workers=%d dcut=%g", w, dc), ex, scan)
			sameResult(t, fmt.Sprintf("Cut workers=%d dcut=%g", w, dc), cut, scan)
		}
	}
}
