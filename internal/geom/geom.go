// Package geom provides the small vector-geometry kernel shared by every
// spatial index and clustering algorithm in this repository: points,
// Euclidean distances, axis-aligned rectangles, and point↔rectangle
// distance bounds.
//
// Points are plain []float64 slices so that callers can store datasets as
// [][]float64 without conversion. All functions assume (and the indexes
// verify at construction) that every point in a dataset has the same
// dimensionality.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in R^d.
type Point = []float64

// Dist returns the Euclidean distance between a and b.
func Dist(a, b Point) float64 {
	return math.Sqrt(SqDist(a, b))
}

// SqDist and SqDistPartial live in kernel.go with the rest of the
// distance kernels, all in one canonical accumulation order.

// Equal reports whether a and b are the same location.
func Equal(a, b Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of p.
func Clone(p Point) Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Rect is an axis-aligned rectangle (hyper-box) given by its lower and
// upper corners. A Rect with Lo[i] > Up[i] in any dimension is empty.
type Rect struct {
	Lo, Up Point
}

// NewRect returns a rectangle spanning the given corners. It panics if the
// corners disagree in dimensionality, because that is always a programming
// error in this codebase.
func NewRect(lo, up Point) Rect {
	if len(lo) != len(up) {
		panic(fmt.Sprintf("geom: rect corners of different dimensions %d and %d", len(lo), len(up)))
	}
	return Rect{Lo: Clone(lo), Up: Clone(up)}
}

// EmptyRect returns the identity element for ExpandRect in d dimensions:
// every coordinate interval is inverted (+Inf, -Inf).
func EmptyRect(d int) Rect {
	lo := make(Point, d)
	up := make(Point, d)
	for i := 0; i < d; i++ {
		lo[i] = math.Inf(1)
		up[i] = math.Inf(-1)
	}
	return Rect{Lo: lo, Up: up}
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Lo) }

// Contains reports whether p lies inside r (inclusive on both sides).
func (r Rect) Contains(p Point) bool {
	for i := range p {
		if p[i] < r.Lo[i] || p[i] > r.Up[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Up[i] > r.Up[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share any point.
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if r.Lo[i] > s.Up[i] || r.Up[i] < s.Lo[i] {
			return false
		}
	}
	return true
}

// Expand grows r in place so that it contains p.
func (r *Rect) Expand(p Point) {
	for i := range p {
		if p[i] < r.Lo[i] {
			r.Lo[i] = p[i]
		}
		if p[i] > r.Up[i] {
			r.Up[i] = p[i]
		}
	}
}

// ExpandRect grows r in place so that it contains s.
func (r *Rect) ExpandRect(s Rect) {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] {
			r.Lo[i] = s.Lo[i]
		}
		if s.Up[i] > r.Up[i] {
			r.Up[i] = s.Up[i]
		}
	}
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	c := make(Point, len(r.Lo))
	for i := range c {
		c[i] = (r.Lo[i] + r.Up[i]) / 2
	}
	return c
}

// Margin returns the sum of edge lengths (used by R-tree split heuristics).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Lo {
		m += r.Up[i] - r.Lo[i]
	}
	return m
}

// Area returns the d-dimensional volume of r. An empty rect has area 0.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		e := r.Up[i] - r.Lo[i]
		if e < 0 {
			return 0
		}
		a *= e
	}
	return a
}

// SqMinDist returns the squared minimum distance from p to any point of r
// (0 when p is inside r). This is the pruning bound used by kd-tree and
// R-tree ball queries.
func (r Rect) SqMinDist(p Point) float64 {
	var s float64
	for i := range p {
		switch {
		case p[i] < r.Lo[i]:
			d := r.Lo[i] - p[i]
			s += d * d
		case p[i] > r.Up[i]:
			d := p[i] - r.Up[i]
			s += d * d
		}
	}
	return s
}

// SqMaxDist returns the squared maximum distance from p to any point of r.
// When SqMaxDist < radius^2 an entire subtree can be accepted without
// per-point checks during range counting.
func (r Rect) SqMaxDist(p Point) float64 {
	var s float64
	for i := range p {
		lo := p[i] - r.Lo[i]
		up := r.Up[i] - p[i]
		d := math.Max(math.Abs(lo), math.Abs(up))
		s += d * d
	}
	return s
}

// Bounds returns the minimum bounding rectangle of pts.
// It panics when pts is empty.
func Bounds(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: Bounds of empty point set")
	}
	r := EmptyRect(len(pts[0]))
	for _, p := range pts {
		r.Expand(p)
	}
	return r
}

// ValidateDataset checks that all points share one dimensionality d >= 1
// and contain no NaN or Inf coordinates, returning d.
func ValidateDataset(pts []Point) (int, error) {
	if len(pts) == 0 {
		return 0, fmt.Errorf("geom: empty dataset")
	}
	d := len(pts[0])
	if d == 0 {
		return 0, fmt.Errorf("geom: zero-dimensional point at index 0")
	}
	for i, p := range pts {
		if len(p) != d {
			return 0, fmt.Errorf("geom: point %d has dimension %d, want %d", i, len(p), d)
		}
		for j, x := range p {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0, fmt.Errorf("geom: point %d coordinate %d is %v", i, j, x)
			}
		}
	}
	return d, nil
}
