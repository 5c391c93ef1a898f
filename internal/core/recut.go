package core

// This file exports the shared post-density steps of the framework for
// index-backed construction: a parameter-flexible density index (see
// internal/densindex) re-derives Rho/Delta/Dep for a new parameter
// setting from stored neighbor lists (falling back to TreeDependents for
// points whose list holds no denser neighbor), then needs exactly the
// same ordering, tie-breaking, and finalization the algorithms use so
// its labels are byte-identical to a fresh fit. Restore then freezes the
// re-cut Result into a servable Model.

// Finalize derives Centers and Labels from res.Rho/Delta/Dep under p
// (noise detection, center selection, label propagation along the
// dependency forest) — the exact step every algorithm runs after its
// density phase. res.Rho, res.Delta, and res.Dep must be fully
// populated.
func Finalize(res *Result, p Params) { finalize(res, p) }

// DensityOrder returns point indices sorted by descending rho — the
// order every "points of higher density" scan uses — sorting with up to
// `workers` goroutines. The comparator (rho descending, index
// ascending) is a strict total order, so the permutation is identical
// for every worker count.
func DensityOrder(rho []float64, workers int) []int32 { return densityOrder(rho, workers) }

// WorkerCount resolves p.Workers to an effective thread count (<= 0
// means all CPUs) — the same policy the algorithms apply internally.
func (p Params) WorkerCount() int { return p.workers() }

// Jitter returns the deterministic density tie-breaker added to point
// i's neighbor count: a SplitMix64-derived value in (0, 1) that makes
// all densities distinct while never reordering points with different
// counts. Index re-cuts must add the identical jitter to reproduce a
// fresh fit's density order bit-for-bit.
func Jitter(i int) float64 { return jitter(i) }
