package replan

import (
	"context"
	"fmt"
	"math"
	"slices"

	"mobicol/internal/collector"
	"mobicol/internal/cover"
	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/par"
	"mobicol/internal/tsp"
	"mobicol/internal/wsn"
)

// Options tunes a repair.
type Options struct {
	// Pool bounds the parallelism of the carry and rehome phases. Any
	// pool size produces a byte-identical plan.
	Pool par.Pool
	// Obs, when non-nil, receives per-phase spans (carry, rehome,
	// recover, splice, improve). Nil disables tracing.
	Obs *obs.Trace
}

// Stats summarises what a repair touched; everything it does not mention
// was reused from the previous plan untouched.
type Stats struct {
	Kept      int // sensors that kept their carried stop
	Rehomed   int // dirty sensors re-attached to an existing stop
	Recovered int // dirty sensors needing freshly planned coverage
	NewStops  int // stops added by the recover phase
	Ejected   int // previous stops that lost every sensor
	Moves     int // seeded 2-opt/Or-opt improvements applied
}

// Dirty returns how many sensors lost their carried assignment.
func (s Stats) Dirty() int { return s.Rehomed + s.Recovered }

// Repair warm-starts a plan for nw from a previous plan. carried[i] is
// the stop (an index into prev.Stops) sensor i of nw uploaded at before
// the scenario changed, or -1 for sensors with no previous assignment;
// Delta.Apply and CarryPositional both produce it.
//
// The repair is local: assignments still within range are kept verbatim,
// dirty sensors are rehomed onto the nearest existing stop through a
// grid over the stop set, and only the sensors no stop can serve get new
// stops (a greedy disk cover over their own sites, spliced into the
// previous visit order by cheapest insertion). A previous stop is
// ejected only when it served sensors before and serves none now, so
// repairing against an unchanged scenario returns a bit-identical plan.
// Bounded 2-opt/Or-opt passes run seeded with the spliced and ejected
// segments; an empty touch set skips them entirely.
//
// Repair checks ctx at every phase boundary (carry → rehome → recover →
// splice/improve) and returns ctx's error there.
//
//mdglint:hotpath
//mdglint:allow-alloc(repair runs once per scenario change and owns the plan it returns)
func Repair(ctx context.Context, nw *wsn.Network, prev *collector.TourPlan, carried []int, opts Options) (*collector.TourPlan, Stats, error) {
	root := opts.Obs.Start("replan")
	defer root.End()

	var st Stats
	n := nw.N()
	m := len(prev.Stops)
	if !prev.Sink.Eq(nw.Sink) {
		return nil, st, fmt.Errorf("replan: previous plan anchored at %v, network sink is %v", prev.Sink, nw.Sink)
	}
	if len(carried) != n {
		return nil, st, fmt.Errorf("replan: %d carried assignments for %d sensors", len(carried), n)
	}
	for i, s := range carried {
		if s < -1 || s >= m {
			return nil, st, fmt.Errorf("replan: sensor %d carried to stop %d of %d", i, s, m)
		}
	}

	sensors := nw.Positions()
	bound := nw.Range*nw.Range + geom.Eps

	// Phase 1 — carry: keep every assignment whose stop is still within
	// range of the (possibly moved) sensor. Pure per-sensor work, so the
	// pool fan-out is deterministic.
	spCarry := root.Child("carry")
	assign := par.Map(opts.Pool, n, func(i int) int {
		if s := carried[i]; s >= 0 && sensors[i].Dist2(prev.Stops[s]) <= bound {
			return s
		}
		return -1
	})
	dirty := make([]int, 0, 16)
	for i, s := range assign {
		if s < 0 {
			dirty = append(dirty, i)
		} else {
			st.Kept++
		}
	}
	spCarry.SetInt("kept", int64(st.Kept))
	spCarry.SetInt("dirty", int64(len(dirty)))
	spCarry.End()
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}

	// Phase 2 — rehome: a dirty sensor that drifted into range of some
	// other existing stop needs no new stop, just a new assignment.
	spRehome := root.Child("rehome")
	var stopIdx *geom.GridIndex // also serves the splice phase's slot search
	if len(dirty) > 0 && m > 0 {
		stopIdx = geom.NewGridIndexFor(prev.Stops, nw.Range)
		rehomed := par.Map(opts.Pool, len(dirty), func(k int) int {
			s, _ := stopIdx.NearestWithin(sensors[dirty[k]], nw.Range)
			return s
		})
		left := dirty[:0]
		for k, s := range rehomed {
			if s >= 0 {
				assign[dirty[k]] = s
				st.Rehomed++
			} else {
				left = append(left, dirty[k])
			}
		}
		dirty = left
	}
	st.Recovered = len(dirty)
	spRehome.SetInt("rehomed", int64(st.Rehomed))
	spRehome.End()
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}

	// Phase 3 — recover: greedily cover the sensors no existing stop can
	// serve, using their own sites as candidates (every dirty sensor
	// covers itself, so the instance is always feasible).
	spRecover := root.Child("recover")
	var newStops []geom.Point
	if len(dirty) > 0 {
		dirtyPts := make([]geom.Point, len(dirty))
		for k, i := range dirty {
			dirtyPts[k] = sensors[i]
		}
		inst := cover.NewInstancePool(dirtyPts, dirtyPts, nw.Range, opts.Pool)
		chosen, err := inst.Greedy(nw.Sink)
		if err != nil {
			return nil, st, fmt.Errorf("replan: recover phase: %w", err)
		}
		newStops = make([]geom.Point, len(chosen))
		for k, c := range chosen {
			newStops[k] = inst.Candidates[c]
		}
		for k, a := range inst.Assign(dirtyPts, chosen) {
			assign[dirty[k]] = m + a
		}
	}
	st.NewStops = len(newStops)
	spRecover.SetInt("new_stops", int64(st.NewStops))
	spRecover.End()
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}

	// Phase 4 — eject: drop previous stops that served sensors before and
	// serve none now. Previous load comes from the plan itself (not from
	// carried, which has already lost removed sensors); stops that were
	// load-free in the previous plan stay, preserving the Δ=∅ identity
	// even for plans carrying idle stops.
	loadPrev := make([]int, m)
	for _, s := range prev.UploadAt {
		if s >= 0 && s < m {
			loadPrev[s]++
		}
	}
	loadNew := make([]int, m+len(newStops))
	for _, s := range assign {
		loadNew[s]++
	}
	eject := make([]bool, m)
	for j := 0; j < m; j++ {
		if loadNew[j] == 0 && loadPrev[j] > 0 {
			eject[j] = true
			st.Ejected++
		}
	}

	// Phase 5 — splice: previous visit order minus ejected stops, new
	// stops inserted where they detour least. touched collects the stop
	// ids whose tour neighbourhood changed; they seed the bounded local
	// search below.
	spSplice := root.Child("splice")
	allStops := append(append(make([]geom.Point, 0, m+len(newStops)), prev.Stops...), newStops...)
	order := make([]int, 0, len(allStops))
	touched := make(map[int]bool, 2*(st.Ejected+st.NewStops))
	for j := 0; j < m; j++ {
		if !eject[j] {
			order = append(order, j)
			continue
		}
		// The survivors either side of an ejection inherit a new tour edge.
		for p := j - 1; p >= 0; p-- {
			if !eject[p] {
				touched[p] = true
				break
			}
		}
		for p := j + 1; p < m; p++ {
			if !eject[p] {
				touched[p] = true
				break
			}
		}
	}
	if len(newStops) > 0 {
		sp := newSplicer(nw.Sink, allStops, order, eject)
		for g := m; g < len(allStops); g++ {
			pos := sp.insert(g, stopIdx)
			if pos > 0 {
				touched[sp.order[pos-1]] = true
			}
			if pos < len(sp.order)-1 {
				touched[sp.order[pos+1]] = true
			}
			touched[g] = true
		}
		order = sp.order
	}
	spSplice.SetInt("ejected", int64(st.Ejected))
	spSplice.End()

	// Phase 6 — improve: seeded 2-opt/Or-opt around the touched segments.
	// Tour points: index 0 is the sink, 1..k the stops in visit order.
	spImprove := root.Child("improve")
	pts := make([]geom.Point, 0, len(order)+1)
	pts = append(pts, nw.Sink)
	for _, g := range order {
		pts = append(pts, allStops[g])
	}
	tour := make(tsp.Tour, len(pts))
	for i := range tour {
		tour[i] = i
	}
	if len(touched) > 0 && len(pts) >= 4 {
		seeds := make([]int, 0, 3*len(touched))
		for i, g := range order {
			if touched[g] {
				// Seed the stop and its current cycle neighbours (pts
				// index i+1; index 0 is the sink and seeds naturally).
				seeds = append(seeds, i, i+1, (i+2)%len(pts))
			}
		}
		// The passes read the neighbour lists of only the points they
		// examine, so only those lists are computed.
		nb := tsp.NewNeighbors(pts)
		var sc tsp.Scratch
		st.Moves = sc.TwoOptSeeded(pts, tour, nb, seeds)
		st.Moves += sc.OrOptSeeded(pts, tour, nb, seeds)
		tour.RotateTo(0)
	}
	spImprove.SetInt("moves", int64(st.Moves))
	spImprove.End()

	// Reassemble: visit order from the improved tour, assignment remapped
	// from global stop ids to visit positions.
	finalStops := make([]geom.Point, 0, len(order))
	finalPos := make([]int, len(allStops))
	for i := range finalPos {
		finalPos[i] = -1
	}
	for _, ti := range tour[1:] {
		finalPos[order[ti-1]] = len(finalStops)
		finalStops = append(finalStops, pts[ti])
	}
	uploadAt := make([]int, n)
	for i, s := range assign {
		uploadAt[i] = finalPos[s]
	}
	root.SetInt("stops", int64(len(finalStops)))
	root.SetInt("dirty", int64(st.Dirty()))
	return &collector.TourPlan{Sink: nw.Sink, Stops: finalStops, UploadAt: uploadAt}, st, nil
}

// splicer inserts new stops into a visit order by cheapest insertion:
// each goes into the slot that grows the closed tour sink -> order ->
// sink the least, ties toward the earliest slot, as a scan over every
// slot would place it. It prices only the slots that could match the
// cheapest one, so an insertion costs about the stops near the new one,
// not the tour.
type splicer struct {
	sink  geom.Point
	stops []geom.Point // every stop by id: the previous plan's, then the new ones
	order []int        // visit order of stop ids
	at    []int        // at[g]: position of stop g in order, -1 when absent
	eject []bool       // previous stops left out of order
	fresh []int        // new stops inserted so far
	lmax  float64      // upper bound on every stop-to-stop edge of order
	hits  []int        // scratch: grid query results
	slots []int        // scratch: positions to price
}

// newSplicer starts from order, the previous stops that survive in visit
// order.
func newSplicer(sink geom.Point, stops []geom.Point, order []int, eject []bool) splicer {
	sp := splicer{sink: sink, stops: stops, order: order, at: make([]int, len(stops)), eject: eject}
	for g := range sp.at {
		sp.at[g] = -1
	}
	for i, g := range order {
		sp.at[g] = i
		if i > 0 {
			sp.lmax = max(sp.lmax, stops[order[i-1]].Dist(stops[g]))
		}
	}
	return sp
}

// cost is what inserting p at slot pos adds to the tour: slot pos lies
// between order[pos-1] and order[pos], the sink standing in past either
// end.
func (sp *splicer) cost(pos int, p geom.Point) float64 {
	a, b := sp.sink, sp.sink
	if pos > 0 {
		a = sp.stops[sp.order[pos-1]]
	}
	if pos < len(sp.order) {
		b = sp.stops[sp.order[pos]]
	}
	return a.Dist(p) + p.Dist(b) - a.Dist(b)
}

// slot returns the position at which inserting p grows the tour least,
// ties toward the earliest position. grid indexes the previous stops (nil
// when there were none); the ejected ones it holds are never priced. The
// splicer does not keep it: it aliases the previous plan.
//
// A slot between stops a and b costs |ap| + |pb| - |ab| >=
// 2·min(|ap|, |pb|) - lmax, so it can match a cost c only if one of its
// ends lies within (lmax + c)/2 of p. c starts as the cheapest of the
// two sink slots and the two slots of the nearest surviving stop; the
// stops within that radius, surviving ones from the grid and new ones
// by a scan, name every other slot that could match it. Pricing those
// slots in ascending position with the same strict < keeps the full
// scan's choice, ties included: a slot outside the set costs more than
// c, so more than the cheapest. The slack absorbs rounding in the
// distances, the radius and the coordinates.
func (sp *splicer) slot(p geom.Point, grid *geom.GridIndex) int {
	k := len(sp.order)
	c := min(sp.cost(0, p), sp.cost(k, p))
	if grid != nil {
		eject := sp.eject
		if s := grid.Nearest(p, func(j int) bool { return eject[j] }); s >= 0 {
			c = min(c, sp.cost(sp.at[s], p), sp.cost(sp.at[s]+1, p))
		}
	}
	r := (sp.lmax + c) / 2
	r += 1e-9 * (r + math.Abs(p.X) + math.Abs(p.Y))
	slots := append(sp.slots[:0], 0, k)
	if grid != nil {
		sp.hits = grid.Within(p, r, sp.hits[:0])
		for _, s := range sp.hits {
			if !sp.eject[s] {
				slots = append(slots, sp.at[s], sp.at[s]+1)
			}
		}
	}
	for _, g := range sp.fresh {
		if p.Dist2(sp.stops[g]) <= r*r+geom.Eps {
			slots = append(slots, sp.at[g], sp.at[g]+1)
		}
	}
	slices.Sort(slots)
	sp.slots = slots
	best, bestCost := 0, 0.0
	for i, pos := range slots {
		if i > 0 && pos == slots[i-1] {
			continue
		}
		if cost := sp.cost(pos, p); i == 0 || cost < bestCost {
			best, bestCost = pos, cost
		}
	}
	return best
}

// insert places new stop g at its cheapest slot and returns the slot.
func (sp *splicer) insert(g int, grid *geom.GridIndex) int {
	p := sp.stops[g]
	pos := sp.slot(p, grid)
	if pos > 0 {
		sp.lmax = max(sp.lmax, sp.stops[sp.order[pos-1]].Dist(p))
	}
	if pos < len(sp.order) {
		sp.lmax = max(sp.lmax, p.Dist(sp.stops[sp.order[pos]]))
	}
	sp.order = append(sp.order, 0)
	copy(sp.order[pos+1:], sp.order[pos:])
	sp.order[pos] = g
	for i := pos; i < len(sp.order); i++ {
		sp.at[sp.order[i]] = i
	}
	sp.fresh = append(sp.fresh, g)
	return pos
}
