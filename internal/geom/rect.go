package geom

import "math"

// Rect is an axis-aligned rectangle with Min at the lower-left corner and
// Max at the upper-right corner. The sensing fields in the paper are
// L×L squares; Rect generalises them.
type Rect struct {
	Min, Max Point
}

// Square returns the L×L field with lower-left corner at the origin.
func Square(l float64) Rect { return Rect{Point{0, 0}, Point{l, l}} }

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the rectangle centre — the paper's default sink location.
func (r Rect) Center() Point { return Mid(r.Min, r.Max) }

// Clamp returns p moved to the nearest point inside the rectangle.
func (r Rect) Clamp(p Point) Point {
	return Point{
		math.Max(r.Min.X, math.Min(r.Max.X, p.X)),
		math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y)),
	}
}

// Expand returns the rectangle grown by m on every side.
func (r Rect) Expand(m float64) Rect {
	return Rect{Point{r.Min.X - m, r.Min.Y - m}, Point{r.Max.X + m, r.Max.Y + m}}
}

// Bound returns the smallest rectangle containing all pts. It panics on an
// empty slice.
func Bound(pts []Point) Rect {
	if len(pts) == 0 {
		//mdglint:ignore nopanic documented in the doc comment; the bounding box of nothing has no value to return
		panic("geom: Bound of empty point set")
	}
	r := Rect{pts[0], pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// GridPoints returns the lattice of points inside r with the given spacing,
// starting at r.Min. This is the "predefined positions on a grid" candidate
// set used in the paper's evaluation of the single-hop scheme (20 m apart).
// The lattice always includes points on the Max edges if the spacing divides
// the extent exactly (within Eps).
func (r Rect) GridPoints(spacing float64) []Point {
	if spacing <= 0 {
		//mdglint:ignore nopanic documented precondition; spacing comes from validated configs or literals
		panic("geom: GridPoints with non-positive spacing")
	}
	nx := int(math.Floor(r.Width()/spacing+Eps)) + 1
	ny := int(math.Floor(r.Height()/spacing+Eps)) + 1
	pts := make([]Point, 0, nx*ny)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			pts = append(pts, Point{r.Min.X + float64(i)*spacing, r.Min.Y + float64(j)*spacing})
		}
	}
	return pts
}
