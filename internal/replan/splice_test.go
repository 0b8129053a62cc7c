package replan

import (
	"fmt"
	"testing"

	"mobicol/internal/geom"
	"mobicol/internal/rng"
	"mobicol/internal/tsp"
)

// cheapestSlot returns the insertion position (into order) that grows the
// closed tour sink -> stops[order...] -> sink the least when adding p.
// Position 0 inserts after the sink; ties break toward the earliest slot.
// It prices every slot: the full scan the splicer is held to.
func cheapestSlot(sink geom.Point, stops []geom.Point, order []int, p geom.Point) int {
	best, bestCost := 0, 0.0
	k := len(order)
	for pos := 0; pos <= k; pos++ {
		a := sink
		if pos > 0 {
			a = stops[order[pos-1]]
		}
		b := sink
		if pos < k {
			b = stops[order[pos]]
		}
		cost := a.Dist(p) + p.Dist(b) - a.Dist(b)
		if pos == 0 || cost < bestCost {
			best, bestCost = pos, cost
		}
	}
	return best
}

// spliceCase is one splice-phase input: the previous stops in visit
// order, which of them are ejected, the new stops in insertion order,
// and the transmission range the rehome grid is sized for.
type spliceCase struct {
	name  string
	sink  geom.Point
	prev  []geom.Point
	eject []bool
	fresh []geom.Point
	r     float64
}

// run splices c's new stops in as Repair does and fails unless every
// insertion lands in the full scan's slot. It returns how many slots
// the splicer priced over all insertions.
func (c spliceCase) run(t testing.TB) (priced int) {
	t.Helper()
	stops := append(append([]geom.Point(nil), c.prev...), c.fresh...)
	var order []int
	for j := range c.prev {
		if !c.eject[j] {
			order = append(order, j)
		}
	}
	var grid *geom.GridIndex
	if len(c.prev) > 0 {
		grid = geom.NewGridIndexFor(c.prev, c.r)
	}
	sp := newSplicer(c.sink, stops, order, c.eject)
	for g := len(c.prev); g < len(stops); g++ {
		want := cheapestSlot(c.sink, stops, sp.order, stops[g])
		if got := sp.insert(g, grid); got != want {
			t.Fatalf("%s: new stop %d at %v: bounded slot %d, full scan %d", c.name, g, stops[g], got, want)
		}
		priced += len(sp.slots)
	}
	return priced
}

// toured orders pts as a cold plan visits them: a tsp.Solve tour from
// the sink.
func toured(sink geom.Point, pts []geom.Point) []geom.Point {
	all := append([]geom.Point{sink}, pts...)
	tour := tsp.Solve(all, tsp.DefaultOptions())
	tour.RotateTo(0)
	out := make([]geom.Point, 0, len(pts))
	for _, i := range tour[1:] {
		out = append(out, all[i])
	}
	return out
}

// spliceCases returns the splice inputs the bounded slot search is
// pinned on: uniform and clustered stops, lattice stops with duplicates
// (exact cost ties), a field 1e6 m out, a stop on the sink, every stop
// ejected, and one surviving stop.
func spliceCases(s *rng.Source) []spliceCase {
	uniform := func(n int, lo, hi float64) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(s.Uniform(lo, hi), s.Uniform(lo, hi))
		}
		return pts
	}
	ejectSome := func(n int, p float64) []bool {
		e := make([]bool, n)
		for i := range e {
			e[i] = s.Bool(p)
		}
		return e
	}
	var cases []spliceCase

	sink := geom.Pt(500, 500)
	prev := toured(sink, uniform(400, 0, 1000))
	cases = append(cases, spliceCase{"uniform", sink, prev, ejectSome(len(prev), 0.1), uniform(40, 0, 1000), 30})

	var centres, clustered, freshClustered []geom.Point
	for c := 0; c < 6; c++ {
		centres = append(centres, geom.Pt(s.Uniform(0, 3000), s.Uniform(0, 3000)))
	}
	for i := 0; i < 300; i++ {
		o := centres[i%len(centres)]
		clustered = append(clustered, geom.Pt(o.X+s.Uniform(-80, 80), o.Y+s.Uniform(-80, 80)))
		if i%6 == 0 {
			o = centres[s.Intn(len(centres))]
			freshClustered = append(freshClustered, geom.Pt(o.X+s.Uniform(-90, 90), o.Y+s.Uniform(-90, 90)))
		}
	}
	prev = toured(geom.Pt(0, 0), clustered)
	cases = append(cases, spliceCase{"clustered", geom.Pt(0, 0), prev, ejectSome(len(prev), 0.2), freshClustered, 30})

	lattice := func(n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(10*float64(s.Intn(8)), 10*float64(s.Intn(8)))
		}
		return pts
	}
	prev = toured(geom.Pt(30, 30), lattice(90))
	cases = append(cases, spliceCase{"lattice", geom.Pt(30, 30), prev, ejectSome(len(prev), 0.15), lattice(30), 10})

	far := func(n int) []geom.Point {
		pts := uniform(n, 0, 300)
		for i := range pts {
			pts[i] = geom.Pt(pts[i].X+1e6, pts[i].Y+1e6)
		}
		return pts
	}
	sink = geom.Pt(1e6+150, 1e6+150)
	prev = toured(sink, far(150))
	cases = append(cases, spliceCase{"offset-1e6", sink, prev, ejectSome(len(prev), 0.1), far(30), 20})

	sink = geom.Pt(200, 200)
	prev = toured(sink, append(uniform(60, 0, 400), sink))
	cases = append(cases, spliceCase{"stop-on-sink", sink, prev, ejectSome(len(prev), 0.1), append(uniform(10, 0, 400), sink), 30})

	prev = uniform(20, 0, 400)
	all := make([]bool, len(prev))
	for i := range all {
		all[i] = true
	}
	cases = append(cases, spliceCase{"all-ejected", sink, prev, all, uniform(15, 0, 400), 30})

	one := make([]bool, len(prev))
	copy(one, all)
	one[7] = false
	cases = append(cases, spliceCase{"one-survivor", sink, prev, one, uniform(15, 0, 400), 30})

	return append(cases, spliceCase{"no-previous-stops", sink, nil, nil, uniform(12, 0, 400), 30})
}

// TestSpliceSlotMatchesFullScan: every insertion of the bounded splice
// lands in the slot the full scan picks, ties included.
func TestSpliceSlotMatchesFullScan(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, c := range spliceCases(rng.New(seed)) {
			c.name = fmt.Sprintf("%s/seed=%d", c.name, seed)
			c.run(t)
		}
	}
}

// TestSpliceSlotExactTies pins the tie-break where the bound is tight.
// The tour runs from the sink to a stop 5 m out, jumps 195 m along a
// line to the far end, and walks back in 5 m steps, so a new stop on the
// line detours by 0 both on the long edge and between its nearest
// stops, and on the long edge one end can sit exactly at the search
// radius. The earlier slot, on the long edge, must win. A field 1e6 m
// out, at a coordinate no float holds exactly, puts the radius at the
// mercy of rounding.
func TestSpliceSlotExactTies(t *testing.T) {
	for _, off := range []float64{0, 1e6 + 0.1} {
		at := func(x float64) geom.Point { return geom.Pt(off+x, off) }
		prev := []geom.Point{at(5)}
		for x := 200; x >= 10; x -= 5 {
			prev = append(prev, at(float64(x)))
		}
		for x := 7.5; x < 200; x += 2.5 {
			c := spliceCase{fmt.Sprintf("collinear/off=%g/x=%g", off, x), at(0), prev, make([]bool, len(prev)), []geom.Point{at(x)}, 5}
			c.run(t)
		}
	}
}

// TestSpliceSlotBoundAtRadius pins the case the slack exists for: the
// new stop is equidistant from both ends of the longest tour edge, and
// that edge's slot is the cheapest, so both ends lie exactly at the
// search radius in real arithmetic. Rounding at this 1e5 m scale moves
// a squared distance by more than the grid query's absolute epsilon.
func TestSpliceSlotBoundAtRadius(t *testing.T) {
	c := spliceCase{
		name:  "bound-at-radius",
		sink:  geom.Pt(1e6, 1.3e6),
		prev:  []geom.Point{geom.Pt(1e6, 1.1e6), geom.Pt(1e6, 1.7e6)},
		eject: []bool{false, false},
		fresh: []geom.Point{geom.Pt(1.7e6, 1.4e6)},
		r:     1e5,
	}
	c.run(t)
}

// TestSpliceSlotIsLocal: on a paper-density field the splicer prices a
// few dozen slots per new stop, not the tour's thousands. Seeding the
// bound with the nearest surviving stop is what keeps the radius near
// the longest tour edge rather than the distance to the sink.
func TestSpliceSlotIsLocal(t *testing.T) {
	s := rng.New(12)
	sink := geom.Pt(1500, 1500)
	pts := make([]geom.Point, 3000)
	for i := range pts {
		pts[i] = geom.Pt(s.Uniform(0, 3000), s.Uniform(0, 3000))
	}
	fresh := make([]geom.Point, 60)
	for i := range fresh {
		fresh[i] = geom.Pt(s.Uniform(0, 3000), s.Uniform(0, 3000))
	}
	prev := toured(sink, pts)
	c := spliceCase{"local", sink, prev, make([]bool, len(prev)), fresh, 30}
	priced := c.run(t)
	perStop := float64(priced) / float64(len(fresh))
	t.Logf("priced %.1f slots per new stop on a %d-stop tour", perStop, len(prev))
	if perStop > 100 {
		t.Fatalf("priced %.0f slots per new stop on a %d-stop tour, want a local search", perStop, len(prev))
	}
}

// FuzzInsertionSlot holds the bounded splice to the full scan on small
// decoded inputs. Byte 0 picks the coordinate step (1 mm to 100 km) and
// offset (up to 1e6 m out, once at a coordinate no float holds), byte 1
// the sink, byte 2 the grid's range; the rest are (x, y, flags)
// triples, at most 48: a previous stop, ejected or not, or a new stop.
// Coordinates on a 16-step grid make coincident stops and exact ties
// common, and the widest steps make rounding outgrow the grid query's
// absolute epsilon.
func FuzzInsertionSlot(f *testing.F) {
	scales := []float64{1, 0.37, 25, 1e-3, 1e4, 7.3e3, 3.3e4, 1e5}
	offsets := []float64{0, -700, 1e6, 1e6 + 0.1}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		scale := scales[int(data[0])%len(scales)]
		off := offsets[int(data[0]/8)%len(offsets)]
		coord := func(b byte) float64 { return off + scale*float64(b%16) }
		c := spliceCase{name: "fuzz", sink: geom.Pt(coord(data[1]), coord(data[1]/16)), r: scale * (1 + float64(data[2]%8))}
		rest := data[3:]
		for i := 0; i+2 < len(rest) && i < 3*48; i += 3 {
			p := geom.Pt(coord(rest[i]), coord(rest[i+1]))
			switch rest[i+2] % 4 {
			case 0, 1:
				c.prev = append(c.prev, p)
				c.eject = append(c.eject, false)
			case 2:
				c.prev = append(c.prev, p)
				c.eject = append(c.eject, true)
			default:
				c.fresh = append(c.fresh, p)
			}
		}
		c.run(t)
	})
}
