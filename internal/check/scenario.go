package check

import (
	"fmt"

	"mobicol/internal/geom"
	"mobicol/internal/rng"
	"mobicol/internal/wsn"
)

// Layout selects the spatial structure of a generated verification
// scenario. The four layouts deliberately stress different planner code
// paths: uniform fields are the paper's deployment model, clusters produce
// disconnected topologies, collinear deployments hit the degenerate
// geometry predicates (orientation tests, zero-length segments), and coincident
// deployments hit zero-length tour edges and duplicate candidate stops.
type Layout int

const (
	// LayoutUniform scatters sensors independently over the field.
	LayoutUniform Layout = iota
	// LayoutClustered draws sensors from a few tight Gaussian clusters.
	LayoutClustered
	// LayoutCollinear places every sensor exactly on one line segment.
	LayoutCollinear
	// LayoutCoincident stacks sensors on a handful of shared positions.
	LayoutCoincident
	numLayouts
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case LayoutUniform:
		return "uniform"
	case LayoutClustered:
		return "clustered"
	case LayoutCollinear:
		return "collinear"
	case LayoutCoincident:
		return "coincident"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Scenario is one generated verification deployment.
type Scenario struct {
	Name   string
	Layout Layout
	Net    *wsn.Network
}

// Scenarios generates count deterministic deployments, cycling through the
// four layouts. The same seed always yields the same scenarios, and each
// scenario draws from its own split RNG stream, so adding scenarios never
// perturbs earlier ones. Every scenario keeps all sensors inside the field
// and uses a positive transmission range, so sensor-site candidate
// generation is always feasible.
func Scenarios(seed uint64, count int) []Scenario {
	src := rng.New(seed)
	out := make([]Scenario, 0, count)
	for i := 0; i < count; i++ {
		s := src.Split()
		layout := Layout(i % int(numLayouts))
		n := 6 + s.Intn(70)
		side := s.Uniform(100, 260)
		r := s.Uniform(20, 45)
		field := geom.Square(side)
		var pts []geom.Point
		switch layout {
		case LayoutClustered:
			k := 1 + s.Intn(4)
			centres := make([]geom.Point, k)
			for c := range centres {
				centres[c] = geom.Pt(s.Uniform(0.1*side, 0.9*side), s.Uniform(0.1*side, 0.9*side))
			}
			for j := 0; j < n; j++ {
				c := centres[s.Intn(k)]
				pts = append(pts, field.Clamp(geom.Pt(
					c.X+s.NormMeanStd(0, side/15), c.Y+s.NormMeanStd(0, side/15))))
			}
		case LayoutCollinear:
			a := geom.Pt(s.Uniform(0, side), s.Uniform(0, side))
			b := geom.Pt(s.Uniform(0, side), s.Uniform(0, side))
			for j := 0; j < n; j++ {
				pts = append(pts, a.Lerp(b, s.Float64()))
			}
		case LayoutCoincident:
			k := 1 + s.Intn(3)
			anchors := make([]geom.Point, k)
			for c := range anchors {
				anchors[c] = geom.Pt(s.Uniform(0, side), s.Uniform(0, side))
			}
			for j := 0; j < n; j++ {
				pts = append(pts, anchors[s.Intn(k)])
			}
		default: // LayoutUniform
			for j := 0; j < n; j++ {
				pts = append(pts, geom.Pt(s.Uniform(0, side), s.Uniform(0, side)))
			}
		}
		sink := field.Center()
		if s.Bool(0.25) {
			sink = field.Min
		}
		out = append(out, Scenario{
			Name:   fmt.Sprintf("%03d-%s/n=%d/side=%.0f/r=%.0f", i, layout, n, side, r),
			Layout: layout,
			Net:    wsn.New(pts, sink, r, field),
		})
	}
	return out
}

// Translate returns a copy of nw with every position, the sink, and the
// field shifted by d. Planner outputs should be translation-invariant up
// to floating-point rounding; the metamorphic suite pins that.
func Translate(nw *wsn.Network, d geom.Point) *wsn.Network {
	pts := nw.Positions()
	for i := range pts {
		pts[i] = pts[i].Add(d)
	}
	return wsn.New(pts, nw.Sink.Add(d), nw.Range,
		geom.NewRect(nw.Field.Min.Add(d), nw.Field.Max.Add(d)))
}

// Scale returns a copy of nw with every position, the sink, the field,
// and the transmission range scaled by k (> 0) about the origin. A scaled
// deployment is the same covering problem, so the planned tour length
// should scale by exactly k (bit-exactly for power-of-two factors).
func Scale(nw *wsn.Network, k float64) *wsn.Network {
	pts := nw.Positions()
	for i := range pts {
		pts[i] = pts[i].Scale(k)
	}
	return wsn.New(pts, nw.Sink.Scale(k), nw.Range*k,
		geom.NewRect(nw.Field.Min.Scale(k), nw.Field.Max.Scale(k)))
}

// WithSensor returns a copy of nw with one extra sensor at p. Adding a
// sensor can only grow the covering problem; it must never invalidate a
// freshly planned tour's coverage.
func WithSensor(nw *wsn.Network, p geom.Point) *wsn.Network {
	pts := append(nw.Positions(), p)
	return wsn.New(pts, nw.Sink, nw.Range, nw.Field)
}
