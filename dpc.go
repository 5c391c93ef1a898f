// Package dpc is a fast, multicore-parallel implementation of
// Density-Peaks Clustering (DPC), reproducing Amagata & Hara,
// "Fast Density-Peaks Clustering: Multicore-based Parallelization
// Approach" (SIGMOD 2021).
//
// DPC (Rodriguez & Laio, Science 2014) clusters points by computing, for
// every point, its local density rho (neighbors within a cutoff distance
// d_cut) and its dependent distance delta (distance to the nearest denser
// point). Cluster centers are dense points that are far from any denser
// point; every other point joins the cluster of its nearest denser
// neighbor; low-density points are noise.
//
// Three algorithms from the paper are provided, plus four baselines:
//
//   - ExDPC: exact, kd-tree based, O(n(n^{1-1/d} + rho_avg)); the
//     paper runs its dependent-point phase serially, here it runs in
//     parallel over blocks of the density order, identical for every
//     worker count.
//   - ApproxDPC: parameter-free approximation with exact densities and
//     guaranteed-identical cluster centers (Theorem 4); fully parallel.
//   - SApproxDPC: sampling-based approximation with a tunable parameter
//     Epsilon trading accuracy for speed; fully parallel.
//   - Baselines: BruteScan, RtreeScan, LSHDDP, CFSFDPA.
//
// Quick start:
//
//	res, err := dpc.Cluster(points, dpc.Params{
//		DCut:     250,   // density cutoff radius
//		RhoMin:   10,    // noise threshold
//		DeltaMin: 5000,  // cluster-center threshold (> DCut)
//	})
//	// res.Labels[i] is point i's cluster id, or dpc.NoCluster for noise.
//
// When thresholds are unknown, run once, inspect DecisionGraph(res), pick
// DeltaMin (SuggestDeltaMin automates the elbow), and re-run — the
// workflow the paper's Figure 1 illustrates.
package dpc

import (
	"repro/internal/core"
	"repro/internal/geom"
)

// Dataset is a flat, row-major point set: one contiguous []float64
// backing array plus N and Dim, with At(i) returning a zero-copy
// subslice. It is the native input representation of every algorithm —
// the [][]float64 entry points pay exactly one copy (FromRows) to reach
// it. Construct with FromRows, or wrap an existing flat buffer with
// NewDataset.
type Dataset = geom.Dataset

// FromRows copies row-slice points into a flat Dataset, validating that
// the rows are rectangular and free of NaN/Inf.
func FromRows(rows [][]float64) (*Dataset, error) { return geom.FromRows(rows) }

// NewDataset wraps an existing flat row-major buffer (len(coords) must
// be a multiple of dim) without copying.
func NewDataset(coords []float64, dim int) *Dataset { return geom.NewDataset(coords, dim) }

// Params are the clustering inputs. See the package comment and
// Definitions 1-5 of the paper.
type Params = core.Params

// Result is a completed clustering. See core.Result for field docs.
type Result = core.Result

// Timing is the decomposed per-phase wall-clock cost of a run.
type Timing = core.Timing

// Algorithm is a runnable DPC implementation.
type Algorithm = core.Algorithm

// DecisionPoint is one (rho, delta) pair of the decision graph.
type DecisionPoint = core.DecisionPoint

// NoCluster labels noise points; NoDependent marks the density peak's
// dependent-point slot.
const (
	NoCluster   = core.NoCluster
	NoDependent = core.NoDependent
)

// NewExDPC returns the paper's exact algorithm (§3).
func NewExDPC() Algorithm { return core.ExDPC{} }

// NewApproxDPC returns the paper's parameter-free approximation (§4). Its
// cluster centers provably equal Ex-DPC's for the same parameters.
func NewApproxDPC() Algorithm { return core.ApproxDPC{} }

// NewSApproxDPC returns the paper's tunable approximation (§5); set
// Params.Epsilon (default 1.0).
func NewSApproxDPC() Algorithm { return core.SApproxDPC{} }

// NewBruteScan returns the O(n^2) straightforward algorithm (§2.1).
func NewBruteScan() Algorithm { return core.Scan{} }

// NewRtreeScan returns the R-tree accelerated scan baseline (§6).
func NewRtreeScan() Algorithm { return core.RtreeScan{} }

// NewLSHDDP returns the LSH-DDP approximate baseline (Zhang et al. 2016).
func NewLSHDDP() Algorithm { return core.LSHDDP{} }

// NewCFSFDPA returns the CFSFDP-A exact baseline (Bai et al. 2017).
func NewCFSFDPA() Algorithm { return core.CFSFDPA{} }

// Algorithms returns all seven implementations in the paper's evaluation
// order; useful for comparative harnesses.
func Algorithms() []Algorithm {
	return []Algorithm{
		core.Scan{}, core.RtreeScan{}, core.LSHDDP{}, core.CFSFDPA{},
		core.ExDPC{}, core.ApproxDPC{}, core.SApproxDPC{},
	}
}

// ByName returns the algorithm with the given paper name ("Ex-DPC",
// "Approx-DPC", "S-Approx-DPC", "Scan", "R-tree + Scan", "LSH-DDP",
// "CFSFDP-A") and ok=false for unknown names.
func ByName(name string) (Algorithm, bool) {
	for _, a := range Algorithms() {
		if a.Name() == name {
			return a, true
		}
	}
	return nil, false
}

// Cluster runs Approx-DPC — the paper's recommended default: fully
// parallel, parameter-free, and center-identical to the exact algorithm.
// The rows are copied once into the flat layout; callers that already
// hold a Dataset should use ClusterDataset.
func Cluster(pts [][]float64, p Params) (*Result, error) {
	return core.ApproxDPC{}.Cluster(pts, p)
}

// ClusterDataset runs Approx-DPC over a flat Dataset with no copying.
func ClusterDataset(ds *Dataset, p Params) (*Result, error) {
	return core.ApproxDPC{}.ClusterDataset(ds, p)
}

// ClusterExact runs the exact Ex-DPC algorithm.
func ClusterExact(pts [][]float64, p Params) (*Result, error) {
	return core.ExDPC{}.Cluster(pts, p)
}

// ClusterExactDataset runs Ex-DPC over a flat Dataset with no copying.
func ClusterExactDataset(ds *Dataset, p Params) (*Result, error) {
	return core.ExDPC{}.ClusterDataset(ds, p)
}

// DecisionGraph returns the (rho, delta) pairs of a result sorted by
// descending delta — the plot users read to choose RhoMin and DeltaMin.
func DecisionGraph(res *Result) []DecisionPoint { return core.DecisionGraph(res) }

// SuggestDeltaMin proposes a DeltaMin that yields exactly k cluster
// centers, by cutting the decision graph's delta gap below the k-th
// largest value. ok is false when fewer than k+1 points qualify.
func SuggestDeltaMin(res *Result, k int, rhoMin float64) (float64, bool) {
	return core.SuggestDeltaMin(res, k, rhoMin)
}
