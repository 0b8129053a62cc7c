// Package obstacle adds physical obstacles to the sensing field and plans
// tours around them. The paper's M-collector line of work (SenCar)
// explicitly motivates trajectory planning that avoids obstacles; here
// obstacles are simple polygons that block the collector's *movement* but
// not radio (a parked vehicle still hears its sensors; document deviations
// per deployment if needed).
//
// The machinery is the classic one: a visibility graph over obstacle
// vertices plus query points, Dijkstra shortest paths on it, and a
// distance matrix that the matrix-TSP solver turns into an obstacle-aware
// tour. Physical waypoint polylines are recovered per tour leg.
package obstacle

import (
	"fmt"
	"math"

	"mobicol/internal/geom"
)

// Polygon is a simple polygon given by its vertices in counter-clockwise
// order. Obstacles must not intersect each other.
type Polygon struct {
	V []geom.Point
}

// Rectangle returns the axis-aligned rectangular obstacle spanning r.
func Rectangle(r geom.Rect) Polygon {
	return Polygon{V: []geom.Point{
		r.Min,
		{X: r.Max.X, Y: r.Min.Y},
		r.Max,
		{X: r.Min.X, Y: r.Max.Y},
	}}
}

// Validate checks the polygon is usable: at least 3 finite vertices in
// counter-clockwise order, enclosing a finite positive area. Finite
// vertices far apart can overflow the area to Inf or NaN, and NaN
// compares false against every bound, so the area is checked for
// finiteness before its sign.
func (p Polygon) Validate() error {
	if len(p.V) < 3 {
		return fmt.Errorf("obstacle: polygon needs >= 3 vertices, has %d", len(p.V))
	}
	for i, v := range p.V {
		if math.IsNaN(v.X) || math.IsInf(v.X, 0) || math.IsNaN(v.Y) || math.IsInf(v.Y, 0) {
			return fmt.Errorf("obstacle: vertex %d at %v is not finite", i, v)
		}
	}
	a := p.signedArea()
	if math.IsNaN(a) || math.IsInf(a, 0) {
		return fmt.Errorf("obstacle: polygon area %v is not finite", a)
	}
	if a <= 0 {
		return fmt.Errorf("obstacle: polygon vertices must be counter-clockwise")
	}
	return nil
}

func (p Polygon) signedArea() float64 {
	sum := 0.0
	for i := range p.V {
		j := (i + 1) % len(p.V)
		sum += p.V[i].Cross(p.V[j])
	}
	return sum / 2
}

// Contains reports whether q lies strictly inside the polygon (boundary
// points count as outside, so paths may run along obstacle walls).
func (p Polygon) Contains(q geom.Point) bool {
	// Ray casting with boundary exclusion.
	for i := range p.V {
		j := (i + 1) % len(p.V)
		if geom.Seg(p.V[i], p.V[j]).Dist(q) <= geom.Eps {
			return false
		}
	}
	inside := false
	for i := range p.V {
		j := (i + 1) % len(p.V)
		a, b := p.V[i], p.V[j]
		if (a.Y > q.Y) != (b.Y > q.Y) {
			x := a.X + (q.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if q.X < x {
				inside = !inside
			}
		}
	}
	return inside
}

// blocks reports whether the open segment (a, b) passes through the
// polygon's interior. Segments touching only the boundary (grazing a wall
// or pivoting on a vertex) are not blocked.
func (p Polygon) blocks(a, b geom.Point) bool {
	// A segment with a strictly interior endpoint is always blocked —
	// this also covers exits that pass exactly through a vertex, which
	// the edge-crossing test deliberately ignores.
	if p.Contains(a) || p.Contains(b) {
		return true
	}
	seg := geom.Seg(a, b)
	// Proper crossing with any edge blocks, unless the crossing is at a
	// shared vertex (handled by sampling below).
	for i := range p.V {
		j := (i + 1) % len(p.V)
		edge := geom.Seg(p.V[i], p.V[j])
		if x, ok := seg.Intersection(edge); ok {
			// A touch at an endpoint of the moving segment or at a
			// polygon vertex is not by itself interior passage.
			if x.Eq(a) || x.Eq(b) || x.Eq(p.V[i]) || x.Eq(p.V[j]) {
				continue
			}
			return true
		}
	}
	// No proper edge crossing: the segment is either fully outside or
	// fully inside (or running along the boundary). Sample interior
	// points; for a simple polygon a handful of samples along the segment
	// decides it (the segment cannot weave in and out without crossing an
	// edge, which was excluded above — samples guard the all-inside and
	// vertex-pivot cases).
	for _, t := range [...]float64{0.5, 0.25, 0.75} {
		if p.Contains(seg.PointAt(t)) {
			return true
		}
	}
	return false
}

// Course is a set of obstacles over a field.
type Course struct {
	Obstacles []Polygon
}

// NewCourse validates and wraps the obstacles.
func NewCourse(obs ...Polygon) (*Course, error) {
	for i, o := range obs {
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("obstacle %d: %w", i, err)
		}
	}
	return &Course{Obstacles: obs}, nil
}

// Blocked reports whether the straight segment a-b passes through any
// obstacle interior.
func (c *Course) Blocked(a, b geom.Point) bool {
	for _, o := range c.Obstacles {
		if o.blocks(a, b) {
			return true
		}
	}
	return false
}

// Inside reports whether q lies strictly inside any obstacle.
func (c *Course) Inside(q geom.Point) bool {
	for _, o := range c.Obstacles {
		if o.Contains(q) {
			return true
		}
	}
	return false
}

// vertices returns every obstacle vertex, pushed outward by a hair so a
// path pivoting on a vertex does not register as interior passage due to
// floating-point noise.
func (c *Course) vertices() []geom.Point {
	var out []geom.Point
	const push = 1e-7
	for _, o := range c.Obstacles {
		centroid := geom.Centroid(o.V)
		for _, v := range o.V {
			dir := v.Sub(centroid)
			n := dir.Norm()
			if n > 0 {
				v = v.Add(dir.Scale(push / n))
			}
			out = append(out, v)
		}
	}
	return out
}

// ShortestPath returns the shortest obstacle-avoiding path from a to b as
// a waypoint polyline (including both endpoints) and its length. It
// returns ok=false when no path exists (an endpoint sealed inside an
// obstacle ring) — with simple disjoint obstacles this cannot happen for
// exterior endpoints.
func (c *Course) ShortestPath(a, b geom.Point) (path []geom.Point, length float64, ok bool) {
	if !c.Blocked(a, b) {
		return []geom.Point{a, b}, a.Dist(b), true
	}
	nodes := append([]geom.Point{a, b}, c.vertices()...)
	n := len(nodes)
	// Dijkstra over the implicit visibility graph.
	dist := make([]float64, n)
	parent := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[0] = 0
	for {
		u, ud := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < ud {
				u, ud = v, dist[v]
			}
		}
		if u < 0 || u == 1 {
			break
		}
		done[u] = true
		for v := 0; v < n; v++ {
			if done[v] || v == u {
				continue
			}
			if c.Blocked(nodes[u], nodes[v]) {
				continue
			}
			if nd := ud + nodes[u].Dist(nodes[v]); nd < dist[v] {
				dist[v] = nd
				parent[v] = u
			}
		}
	}
	if math.IsInf(dist[1], 1) {
		return nil, 0, false
	}
	var rev []geom.Point
	for v := 1; v != -1; v = parent[v] {
		rev = append(rev, nodes[v])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, dist[1], true
}

// Matrix returns the all-pairs obstacle-aware distance matrix over pts.
// Entry (i, j) is +Inf when unreachable.
func (c *Course) Matrix(pts []geom.Point) [][]float64 {
	n := len(pts)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			_, l, ok := c.ShortestPath(pts[i], pts[j])
			if !ok {
				l = math.Inf(1)
			}
			m[i][j] = l
			m[j][i] = l
		}
	}
	return m
}
