package geom

import "math"

// Distance kernels.
//
// Every squared-distance evaluation in this repository — fresh fits,
// kd-tree and R-tree walks, density-index builds and re-cuts, assigns —
// flows through the kernels in this file, and they all share ONE
// accumulation order so results are bit-identical no matter which path
// computed them:
//
//	four float64 accumulator lanes over dimension chunks of 4
//	(lane k sums (a[4c+k]-b[4c+k])^2 in chunk order), reduced as
//	(s0+s2)+(s1+s3), then the <4 trailing dimensions added
//	sequentially to the reduced sum.
//
// The order is kept, rather than a single sequential accumulator,
// because it is what every persisted DPS1 snapshot, every replica and
// every density index was computed with: changing it would move
// distance bits, and with them d_cut ties, labels and shipped models.
// Each squared term is wrapped in an explicit float64 conversion: the Go
// spec lets a compiler fuse x*y+z into one FMA, which rounds once where
// the order above rounds twice, and a conversion forbids that fusion. So
// the same bits come out on every architecture.
// Float32 datasets widen each element to float64 before subtracting
// (exactly, so the f32 kernels agree bitwise with widening the whole
// row first) and otherwise follow the same order.
//
// The partial (early-exit) variants accumulate in the same order and
// additionally compare the running reduced sum against a limit once per
// chunk and once per tail element. Partial sums of non-negative terms
// are monotone under IEEE rounding, so an early exit can only fire when
// the completed sum would also exceed the limit: callers that accept
// strictly-closer candidates (`ok && v < limit`) decide identically to
// the full kernel, and a completed partial returns the canonical sum
// bit-for-bit.

// SqDist returns the squared Euclidean distance between a and b in the
// canonical accumulation order above. It is the inner loop of every
// algorithm here, so it avoids the sqrt.
func SqDist(a, b Point) float64 {
	return sqdist64(a, b)
}

// SqDistPartial computes the squared distance but abandons the sum as
// soon as it exceeds limit, returning (sum, false). When the full
// distance is at most limit it returns the canonical full sum and true.
// Useful for range counting with many far-away candidates.
func SqDistPartial(a, b Point, limit float64) (float64, bool) {
	return sqdist64Partial(a, b, limit)
}

// SqDistIdx returns the squared Euclidean distance between points i and
// j of the dataset — the flat-index twin of SqDist, and the innermost
// kernel of every algorithm here. On float32 datasets it reads the f32
// rows directly (no widened-row allocation).
func SqDistIdx(ds *Dataset, i, j int32) float64 {
	if ds.Coords32 != nil {
		return sqdist32(ds.row32(i), ds.row32(j))
	}
	return sqdist64(ds.row64(i), ds.row64(j))
}

// DistIdx returns the Euclidean distance between points i and j.
func DistIdx(ds *Dataset, i, j int32) float64 {
	return math.Sqrt(SqDistIdx(ds, i, j))
}

// SqDistIdxPartial is the flat-index twin of SqDistPartial: it abandons
// the sum as soon as it exceeds limit, returning (sum, false); when the
// full squared distance is at most limit it returns (sum, true).
func SqDistIdxPartial(ds *Dataset, i, j int32, limit float64) (float64, bool) {
	if ds.Coords32 != nil {
		return sqdist32Partial(ds.row32(i), ds.row32(j), limit)
	}
	return sqdist64Partial(ds.row64(i), ds.row64(j), limit)
}

// SqDistToIdx returns the squared distance between an external query
// point q (always float64 — wire coordinates and tree queries are
// float64 rows) and dataset point i. On float32 datasets the row is
// widened element-wise inside the kernel, so per-node tree evaluations
// never allocate a widened row.
func SqDistToIdx(ds *Dataset, q Point, i int32) float64 {
	if ds.Coords32 != nil {
		return sqdistMixed(q, ds.row32(i))
	}
	return sqdist64(q, ds.row64(i))
}

// SqDistToIdxPartial is SqDistToIdx with the early-exit contract of
// SqDistPartial.
func SqDistToIdxPartial(ds *Dataset, q Point, i int32, limit float64) (float64, bool) {
	if ds.Coords32 != nil {
		return sqdistMixedPartial(q, ds.row32(i), limit)
	}
	return sqdist64Partial(q, ds.row64(i), limit)
}

// SIMDEnabled reports whether distances run on vector assembly. They
// never do: at the paper's dimensions (d <= 8) an AVX2 body bought
// nothing end to end over the pure-Go kernels in this file, so those are
// the only implementation. Kept for benchmark records that log it.
func SIMDEnabled() bool { return false }

// ---------------------------------------------------------------------------
// The kernels. Each one spells out the canonical accumulation order.

func sqdist64(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	n := len(a) &^ 3
	for t := 0; t < n; t += 4 {
		d0 := a[t] - b[t]
		d1 := a[t+1] - b[t+1]
		d2 := a[t+2] - b[t+2]
		d3 := a[t+3] - b[t+3]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	s := (s0 + s2) + (s1 + s3)
	for t := n; t < len(a); t++ {
		d := a[t] - b[t]
		s += float64(d * d)
	}
	return s
}

func sqdist64Partial(a, b []float64, limit float64) (float64, bool) {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	n := len(a) &^ 3
	for t := 0; t < n; t += 4 {
		d0 := a[t] - b[t]
		d1 := a[t+1] - b[t+1]
		d2 := a[t+2] - b[t+2]
		d3 := a[t+3] - b[t+3]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
		if s := (s0 + s2) + (s1 + s3); s > limit {
			return s, false
		}
	}
	s := (s0 + s2) + (s1 + s3)
	for t := n; t < len(a); t++ {
		d := a[t] - b[t]
		s += float64(d * d)
		if s > limit {
			return s, false
		}
	}
	return s, true
}

func sqdist32(a, b []float32) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	n := len(a) &^ 3
	for t := 0; t < n; t += 4 {
		d0 := float64(a[t]) - float64(b[t])
		d1 := float64(a[t+1]) - float64(b[t+1])
		d2 := float64(a[t+2]) - float64(b[t+2])
		d3 := float64(a[t+3]) - float64(b[t+3])
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	s := (s0 + s2) + (s1 + s3)
	for t := n; t < len(a); t++ {
		d := float64(a[t]) - float64(b[t])
		s += float64(d * d)
	}
	return s
}

func sqdist32Partial(a, b []float32, limit float64) (float64, bool) {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	n := len(a) &^ 3
	for t := 0; t < n; t += 4 {
		d0 := float64(a[t]) - float64(b[t])
		d1 := float64(a[t+1]) - float64(b[t+1])
		d2 := float64(a[t+2]) - float64(b[t+2])
		d3 := float64(a[t+3]) - float64(b[t+3])
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
		if s := (s0 + s2) + (s1 + s3); s > limit {
			return s, false
		}
	}
	s := (s0 + s2) + (s1 + s3)
	for t := n; t < len(a); t++ {
		d := float64(a[t]) - float64(b[t])
		s += float64(d * d)
		if s > limit {
			return s, false
		}
	}
	return s, true
}

func sqdistMixed(q []float64, b []float32) float64 {
	b = b[:len(q)]
	var s0, s1, s2, s3 float64
	n := len(q) &^ 3
	for t := 0; t < n; t += 4 {
		d0 := q[t] - float64(b[t])
		d1 := q[t+1] - float64(b[t+1])
		d2 := q[t+2] - float64(b[t+2])
		d3 := q[t+3] - float64(b[t+3])
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	s := (s0 + s2) + (s1 + s3)
	for t := n; t < len(q); t++ {
		d := q[t] - float64(b[t])
		s += float64(d * d)
	}
	return s
}

func sqdistMixedPartial(q []float64, b []float32, limit float64) (float64, bool) {
	b = b[:len(q)]
	var s0, s1, s2, s3 float64
	n := len(q) &^ 3
	for t := 0; t < n; t += 4 {
		d0 := q[t] - float64(b[t])
		d1 := q[t+1] - float64(b[t+1])
		d2 := q[t+2] - float64(b[t+2])
		d3 := q[t+3] - float64(b[t+3])
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
		if s := (s0 + s2) + (s1 + s3); s > limit {
			return s, false
		}
	}
	s := (s0 + s2) + (s1 + s3)
	for t := n; t < len(q); t++ {
		d := q[t] - float64(b[t])
		s += float64(d * d)
		if s > limit {
			return s, false
		}
	}
	return s, true
}
