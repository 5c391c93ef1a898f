package core

import (
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/partition"
)

// ExDPC is the paper's exact algorithm (§3).
//
// Local densities are one kd-tree range count per point —
// O(n(n^{1-1/d} + rho_avg)) total — parallelized with dynamic
// self-scheduling because per-point cost tracks the unknown local density.
//
// Dependent points use the incremental-kd-tree idea: destroy the tree,
// sort points by descending density, and find each point's nearest
// neighbor among the higher-density points (TreeDependents). The paper
// runs this as a serial query-then-insert loop, the scalability
// limitation its Figure 9 exposes and Approx-DPC removes; here it runs in
// parallel over fixed-size blocks of the density order, and the result —
// exact-distance ties included — is bit-identical to Scan's for every
// worker count.
type ExDPC struct{}

// Name implements Algorithm.
func (ExDPC) Name() string { return "Ex-DPC" }

// Cluster implements Algorithm.
func (a ExDPC) Cluster(pts [][]float64, p Params) (*Result, error) {
	return clusterRows(a, pts, p)
}

// ClusterDataset implements Algorithm.
func (ExDPC) ClusterDataset(ds *geom.Dataset, p Params) (*Result, error) {
	if err := validateInput(ds, p); err != nil {
		return nil, err
	}
	n := ds.N
	res := &Result{
		Rho:   make([]float64, n),
		Delta: make([]float64, n),
		Dep:   make([]int32, n),
	}
	workers := p.workers()

	start := time.Now()
	tree := kdtree.BuildAll(ds)
	res.Timing.Build = time.Since(start)

	// Local density: one range count per point, dynamically scheduled
	// ("#pragma omp parallel for schedule(dynamic)" in the paper).
	start = time.Now()
	partition.DynamicChunked(n, workers, 4, func(i int) {
		res.Rho[i] = float64(tree.RangeCount(ds.At(i), p.DCut)) + jitter(i)
	})
	res.Timing.Rho = time.Since(start)

	// Dependent points: destroy K, then search a tree grown in
	// descending density order.
	start = time.Now()
	TreeDependents(ds, densityOrder(res.Rho, workers), nil, res.Delta, res.Dep, workers)
	res.Timing.Delta = time.Since(start)

	start = time.Now()
	finalize(res, p)
	res.Timing.Label = time.Since(start)
	return res, nil
}

// depBlock is the density-order block size of TreeDependents. It is a
// constant, not a function of the worker count, so every worker count
// sees the same frozen trees.
const depBlock = 256

// TreeDependents finds the dependent point (Definition 2) of every point
// i with need[i] — of every point when need is nil — writing its distance
// to delta[i] and its id to dep[i] and leaving the other entries alone.
// order is the density order (DensityOrder); the peak order[0] gets +Inf
// and NoDependent.
//
// It is Ex-DPC's incremental kd-tree search, parallelized without giving
// up exactness: the density order is walked in fixed-size blocks; every
// needed point of a block concurrently queries the tree frozen at the
// block's start (exactly the points of all earlier blocks), then refines
// against the denser members of its own block — precisely the points
// the frozen tree is missing — with an early-exit kernel scan; finally
// the whole block is inserted. Exact squared-distance ties go to the
// earliest point in density order (kdtree.NNRank inside the tree, the
// in-order strict scan inside the block), which is scanDelta's rule, so
// the answers are bit-identical to the brute-force scan's.
func TreeDependents(ds *geom.Dataset, order []int32, need []bool, delta []float64, dep []int32, workers int) {
	n := len(order)
	rank := make([]int32, ds.N)
	for r, i := range order {
		rank[i] = int32(r)
	}
	tree := kdtree.New(ds)
	for lo := 0; lo < n; lo += depBlock {
		block := order[lo:min(lo+depBlock, n)]
		partition.DynamicChunked(len(block), workers, 4, func(k int) {
			i := block[k]
			if need != nil && !need[i] {
				return
			}
			best, bestSq := tree.NNRank(ds.At(int(i)), rank)
			for _, j := range block[:k] {
				if s, ok := geom.SqDistIdxPartial(ds, i, j, bestSq); ok && s < bestSq {
					bestSq, best = s, j
				}
			}
			dep[i] = best
			delta[i] = math.Sqrt(bestSq)
		})
		for _, i := range block {
			tree.Insert(i)
		}
	}
}
