package geom

import (
	"math"
	"math/rand"
	"testing"
)

// randDataset builds an n×dim f64 dataset with coordinates spanning
// several orders of magnitude so accumulation order actually matters —
// uniform [0,1) data can mask order-dependent rounding.
func randDataset(t *testing.T, n, dim int, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, n*dim)
	for i := range coords {
		coords[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return NewDataset(coords, dim)
}

func randDataset32(t *testing.T, n, dim int, seed int64) *Dataset {
	t.Helper()
	return randDataset(t, n, dim, seed).ToFloat32()
}

// canonicalSqDist writes out the documented accumulation order with
// none of the kernel's unrolling: lane t%4 sums the squared differences
// of the leading multiple-of-4 dimensions, the lanes reduce as
// (s0+s2)+(s1+s3), then the trailing dimensions add sequentially.
func canonicalSqDist(a, b []float64) float64 {
	var lane [4]float64
	n := len(a) - len(a)%4
	for t := 0; t < n; t++ {
		d := a[t] - b[t]
		lane[t%4] += float64(d * d)
	}
	s := (lane[0] + lane[2]) + (lane[1] + lane[3])
	for t := n; t < len(a); t++ {
		d := a[t] - b[t]
		s += float64(d * d)
	}
	return s
}

// TestKernelCanonicalOrder pins every kernel form to the canonical
// formula bit for bit. Persisted snapshots, replicas and density indexes
// all hold distances in this order, so any reordering of the sum must
// fail here. The data spans seven orders of magnitude so the order is
// observable: the test also requires one pair on which a plain
// sequential sum differs from the formula.
func TestKernelCanonicalOrder(t *testing.T) {
	orderVisible := false
	for dim := 1; dim <= 67; dim++ {
		ds := randDataset(t, 8, dim, int64(4000+dim))
		ds32 := ds.ToFloat32()
		for i := int32(0); i < 8; i++ {
			for j := int32(0); j < 8; j++ {
				a, b := ds.At(int(i)), ds.At(int(j))
				want := canonicalSqDist(a, b)
				if got := SqDistIdx(ds, i, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("dim %d f64 (%d,%d): kernel %v != canonical %v", dim, i, j, got, want)
				}
				if got, ok := SqDistIdxPartial(ds, i, j, math.Inf(1)); !ok || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("dim %d f64 partial (%d,%d): kernel %v != canonical %v", dim, i, j, got, want)
				}
				a32, b32 := ds32.At(int(i)), ds32.At(int(j))
				want32 := canonicalSqDist(a32, b32)
				if got := SqDistIdx(ds32, i, j); math.Float64bits(got) != math.Float64bits(want32) {
					t.Fatalf("dim %d f32 (%d,%d): kernel %v != canonical %v", dim, i, j, got, want32)
				}
				if got, ok := SqDistToIdxPartial(ds32, a32, j, math.Inf(1)); !ok || math.Float64bits(got) != math.Float64bits(want32) {
					t.Fatalf("dim %d mixed partial (%d,%d): kernel %v != canonical %v", dim, i, j, got, want32)
				}
				var seq float64
				for k := range a {
					d := a[k] - b[k]
					seq += float64(d * d)
				}
				if seq != want {
					orderVisible = true
				}
			}
		}
	}
	if !orderVisible {
		t.Fatal("sequential and canonical sums agree on every pair; the data cannot detect a reordered kernel")
	}
}

// TestKernelPrecisionForms checks that the f32 and mixed query×row
// kernels return the same bits as the f64 kernel over widened rows, for
// every dimension: float32→float64 is exact, so the canonical order sums
// the same values whichever form reads them.
func TestKernelPrecisionForms(t *testing.T) {
	for dim := 1; dim <= 67; dim++ {
		ds32 := randDataset32(t, 8, dim, int64(2000+dim))
		for i := int32(0); i < 8; i++ {
			for j := int32(0); j < 8; j++ {
				got32 := SqDistIdx(ds32, i, j)
				gotm := SqDistToIdx(ds32, ds32.At(int(i)), j)
				wide := sqdist64(ds32.At(int(i)), ds32.At(int(j)))
				if math.Float64bits(got32) != math.Float64bits(wide) {
					t.Fatalf("dim %d f32-vs-widened (%d,%d): %v != %v", dim, i, j, got32, wide)
				}
				if math.Float64bits(gotm) != math.Float64bits(got32) {
					t.Fatalf("dim %d mixed-vs-f32 (%d,%d): %v != %v", dim, i, j, gotm, got32)
				}
			}
		}
	}
}

// TestKernelPartialConsistency checks the early-exit contract on both
// precisions: a completed partial returns the full canonical sum
// bit-for-bit, and an early exit fires only when the full sum genuinely
// exceeds the limit.
func TestKernelPartialConsistency(t *testing.T) {
	for _, f32 := range []bool{false, true} {
		for dim := 1; dim <= 19; dim++ {
			var ds *Dataset
			if f32 {
				ds = randDataset32(t, 8, dim, int64(3000+dim))
			} else {
				ds = randDataset(t, 8, dim, int64(3000+dim))
			}
			for i := int32(0); i < 8; i++ {
				for j := int32(0); j < 8; j++ {
					full := SqDistIdx(ds, i, j)
					for _, limit := range []float64{0, full * 0.5, full, full * 2, math.Inf(1)} {
						s, ok := SqDistIdxPartial(ds, i, j, limit)
						if ok {
							if full > limit {
								t.Fatalf("f32=%v dim %d: partial completed at limit %v but full is %v", f32, dim, limit, full)
							}
							if math.Float64bits(s) != math.Float64bits(full) {
								t.Fatalf("f32=%v dim %d: completed partial %v != full %v", f32, dim, s, full)
							}
						} else if full <= limit {
							t.Fatalf("f32=%v dim %d: early exit at limit %v though full %v fits", f32, dim, limit, full)
						}
						q := ds.At(int(i))
						s2, ok2 := SqDistToIdxPartial(ds, q, j, limit)
						if ok != ok2 || (ok && math.Float64bits(s) != math.Float64bits(s2)) {
							t.Fatalf("f32=%v dim %d: SqDistToIdxPartial (%v,%v) disagrees with SqDistIdxPartial (%v,%v)",
								f32, dim, s2, ok2, s, ok)
						}
					}
				}
			}
		}
	}
}

// TestKernelPointForms checks SqDist/SqDistPartial (the Point forms)
// agree with the Idx kernels, and DistIdx is the square root.
func TestKernelPointForms(t *testing.T) {
	ds := randDataset(t, 6, 23, 7)
	for i := int32(0); i < 6; i++ {
		for j := int32(0); j < 6; j++ {
			idx := SqDistIdx(ds, i, j)
			pt := SqDist(ds.At(int(i)), ds.At(int(j)))
			if math.Float64bits(idx) != math.Float64bits(pt) {
				t.Fatalf("(%d,%d): SqDistIdx %v != SqDist %v", i, j, idx, pt)
			}
			if d := DistIdx(ds, i, j); math.Float64bits(d) != math.Float64bits(math.Sqrt(idx)) {
				t.Fatalf("(%d,%d): DistIdx %v != sqrt %v", i, j, d, math.Sqrt(idx))
			}
			to := SqDistToIdx(ds, ds.At(int(i)), j)
			if math.Float64bits(idx) != math.Float64bits(to) {
				t.Fatalf("(%d,%d): SqDistToIdx %v != SqDistIdx %v", i, j, to, idx)
			}
		}
	}
}

func TestDatasetPrecision(t *testing.T) {
	ds := randDataset(t, 5, 3, 99)
	if ds.Precision() != "f64" || ds.Float32() {
		t.Fatalf("f64 dataset reports %q/%v", ds.Precision(), ds.Float32())
	}
	ds32 := ds.ToFloat32()
	if ds32.Precision() != "f32" || !ds32.Float32() {
		t.Fatalf("f32 dataset reports %q/%v", ds32.Precision(), ds32.Float32())
	}
	if ds32.ToFloat32() != ds32 || ds.ToFloat64() != ds {
		t.Fatal("precision conversion to the same precision should return the receiver")
	}
	if err := ds32.Validate(); err != nil {
		t.Fatalf("f32 Validate: %v", err)
	}
	back := ds32.ToFloat64()
	for i := 0; i < ds.N; i++ {
		for j := 0; j < ds.Dim; j++ {
			if float64(float32(ds.Coord(int32(i), j))) != back.Coord(int32(i), j) {
				t.Fatalf("round-trip coord (%d,%d) mismatch", i, j)
			}
		}
	}
	if ds.Fingerprint() == ds32.Fingerprint() {
		t.Fatal("f32 and f64 datasets should not share a fingerprint")
	}
	sel := ds32.Select([]int32{2, 0})
	if !sel.Float32() || sel.N != 2 || sel.Coord(0, 1) != ds32.Coord(2, 1) {
		t.Fatal("Select on f32 dataset lost precision or order")
	}
	// AtBuf must reuse the buffer on f32 and alias the backing on f64.
	buf := make(Point, ds32.Dim)
	row := ds32.AtBuf(3, buf)
	if &row[0] != &buf[0] {
		t.Fatal("AtBuf on f32 did not use the caller's buffer")
	}
	row64 := ds.AtBuf(3, buf)
	if &row64[0] != &ds.Coords[3*ds.Dim] {
		t.Fatal("AtBuf on f64 did not return the zero-copy view")
	}
}
