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
// neighbor among the higher-density points. The paper runs this as a
// serial query-then-insert loop, the scalability limitation its Figure 9
// exposes and Approx-DPC removes; here it runs in parallel over
// fixed-size blocks of the density order — each point queries a tree
// frozen at its block's start, then scans the denser members of its own
// block — so the result stays exact and identical for every worker count.
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

	// Dependent points: destroy K, then find each point's nearest
	// higher-density point in descending density order. The serial
	// query-then-insert loop is the scalability limitation Figure 9
	// exposes; here it is parallelized without giving up exactness by
	// processing the density order in fixed-size blocks. Every point of
	// a block queries the frozen tree (holding exactly the points of all
	// earlier blocks) concurrently, then refines against the denser
	// members of its own block — precisely the points the frozen tree is
	// missing — with an early-exit kernel scan over at most depBlock-1
	// candidates; finally the whole block is inserted. Each point still
	// finds its true dependent point, and because the block size is a
	// constant and point k's answer depends only on the frozen tree and
	// block[:k], the labels are byte-identical for every worker count
	// (Workers=1 runs the same code). On exact-distance ties the winner
	// can differ from the old one-insert-per-query loop's choice — the
	// same degenerate duplicate-distance class the density index
	// documents.
	start = time.Now()
	order := densityOrder(res.Rho, workers)
	tree = kdtree.New(ds) // "destroy K"
	res.Delta[order[0]] = math.Inf(1)
	res.Dep[order[0]] = NoDependent
	tree.Insert(order[0])
	const depBlock = 256
	for lo := 1; lo < n; lo += depBlock {
		hi := min(lo+depBlock, n)
		block := order[lo:hi]
		partition.DynamicChunked(len(block), workers, 4, func(k int) {
			i := block[k]
			best, bestSq := tree.NN(ds.At(int(i)))
			for _, j := range block[:k] {
				if s, ok := geom.SqDistIdxPartial(ds, i, j, bestSq); ok && s < bestSq {
					bestSq, best = s, j
				}
			}
			res.Dep[i] = best
			res.Delta[i] = math.Sqrt(bestSq)
		})
		for _, i := range block {
			tree.Insert(i)
		}
	}
	res.Timing.Delta = time.Since(start)

	start = time.Now()
	finalize(res, p)
	res.Timing.Label = time.Since(start)
	return res, nil
}
