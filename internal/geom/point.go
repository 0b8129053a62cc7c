// Package geom implements the 2-D computational-geometry substrate used by
// the data-gathering planners: points, segments, circles, axis-aligned
// rectangles, and one spatial index (a uniform hash grid) for range and
// nearest-neighbour queries over sensor fields.
//
// All coordinates are in metres, matching the paper's simulation setup.
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance used for geometric predicates that must absorb
// floating-point rounding (e.g. "is this point on that circle?").
const Eps = 1e-9

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is a shorthand constructor.
func Pt(x, y float64) Point { return Point{x, y} }

// String formats the point with centimetre precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Add returns p + q (vector addition).
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Norm2 returns the squared Euclidean length of p.
func (p Point) Norm2() float64 { return p.X*p.X + p.Y*p.Y }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. Prefer it
// over Dist in comparisons: it avoids the square root.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// Rotate returns p rotated by theta radians about the origin.
func (p Point) Rotate(theta float64) Point {
	s, c := math.Sincos(theta)
	return Point{p.X*c - p.Y*s, p.X*s + p.Y*c}
}

// Polar returns the point at distance r and angle theta from p.
func (p Point) Polar(r, theta float64) Point {
	s, c := math.Sincos(theta)
	return Point{p.X + r*c, p.Y + r*s}
}

// Mid returns the midpoint of p and q.
func Mid(p, q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Centroid returns the arithmetic mean of pts. It panics on an empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		//mdglint:ignore nopanic documented in the doc comment; the mean of nothing has no value to return
		panic("geom: Centroid of empty point set")
	}
	var c Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	return c.Scale(1 / float64(len(pts)))
}

// Orientation classifies the turn a->b->c: +1 for counter-clockwise,
// -1 for clockwise, 0 for collinear (within Eps scaled by magnitude).
func Orientation(a, b, c Point) int {
	v := b.Sub(a).Cross(c.Sub(a))
	scale := math.Max(1, b.Sub(a).Norm()*c.Sub(a).Norm())
	switch {
	case v > Eps*scale:
		return 1
	case v < -Eps*scale:
		return -1
	default:
		return 0
	}
}
