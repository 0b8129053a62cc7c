package replan

import (
	"context"
	"fmt"
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
	Moves     int // seeded 2-opt/Or-opt moves, including those that carry a new stop to a cheaper slot
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
// stops (a greedy disk cover over their own sites, each spliced into the
// previous visit order right after its nearest surviving stop). A
// previous stop is ejected only when it served sensors before and serves
// none now, so repairing against an unchanged scenario returns a
// bit-identical plan. One tsp.Improve runs seeded with the spliced and
// ejected segments; its Or-opt moves each new stop to a cheaper slot,
// and an empty touch set leaves the order as it is.
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

	bound := nw.Range*nw.Range + geom.Eps

	// Phase 1 — carry: keep every assignment whose stop is still within
	// range of the (possibly moved) sensor. Pure per-sensor work, so the
	// pool fan-out is deterministic.
	spCarry := root.Child("carry")
	assign := par.Map(opts.Pool, n, func(i int) int {
		if s := carried[i]; s >= 0 && nw.Nodes[i].Pos.Dist2(prev.Stops[s]) <= bound {
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
	// One grid over the previous stops serves the round: it rehomes the
	// dirty sensors, finds each new stop's nearest surviving stop in the
	// splice phase and answers the improve phase's neighbour lists.
	var stopIdx *geom.GridIndex
	if len(dirty) > 0 {
		stopIdx = geom.NewGridIndexFor(prev.Stops, nw.Range)
		rehomed := par.Map(opts.Pool, len(dirty), func(k int) int {
			s, _ := stopIdx.NearestWithin(nw.Nodes[dirty[k]].Pos, nw.Range)
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
			dirtyPts[k] = nw.Nodes[i].Pos
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
	// serve none now. Previous service comes from the plan itself (not
	// from carried, which has already lost removed sensors); stops that
	// were load-free in the previous plan stay, preserving the Δ=∅
	// identity even for plans carrying idle stops.
	eject := make([]bool, m)
	for _, s := range prev.UploadAt {
		if s >= 0 && s < m {
			eject[s] = true
		}
	}
	for _, s := range assign {
		if s < m {
			eject[s] = false
		}
	}
	for _, e := range eject {
		if e {
			st.Ejected++
		}
	}

	// Phase 5 — splice: previous visit order minus ejected stops, each
	// new stop right after its nearest surviving stop (after the sink
	// when none survives), new stops sharing an anchor in id order.
	// touched collects the stop ids whose tour neighbourhood changed;
	// they seed the local search below.
	spSplice := root.Child("splice")
	stops := m + len(newStops)
	anchor := make([]int, len(newStops))
	fresh := make([]int, len(newStops))
	for k, q := range newStops {
		// New stops come only from dirty sensors, so the rehome phase
		// built stopIdx; over no previous stops it finds none (-1).
		anchor[k], fresh[k] = stopIdx.Nearest(q, func(j int) bool { return eject[j] }), m+k
	}
	slices.SortStableFunc(fresh, func(a, b int) int { return anchor[a-m] - anchor[b-m] })
	order := make([]int, 0, stops)
	touched := make([]bool, stops)
	placeAfter := func(j int) {
		for len(fresh) > 0 && anchor[fresh[0]-m] == j {
			order = append(order, fresh[0])
			fresh = fresh[1:]
		}
	}
	placeAfter(-1)
	for j := 0; j < m; j++ {
		if !eject[j] {
			order = append(order, j)
			placeAfter(j)
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
	for i, g := range order {
		if g < m {
			continue
		}
		touched[g] = true
		if i > 0 {
			touched[order[i-1]] = true
		}
		if i < len(order)-1 {
			touched[order[i+1]] = true
		}
	}
	spSplice.SetInt("ejected", int64(st.Ejected))
	spSplice.End()

	// Phase 6 — improve: one seeded tsp.Improve around the touched
	// stops. Tour points: index 0 is the sink, 1..k the stops in visit
	// order, the round's one copy of the stop positions.
	spImprove := root.Child("improve")
	pts := make([]geom.Point, 1, len(order)+1)
	pts[0] = nw.Sink
	for _, g := range order {
		if g < m {
			pts = append(pts, prev.Stops[g])
		} else {
			pts = append(pts, newStops[g-m])
		}
	}
	// An ejection touches at most two stops and a new stop three.
	seeds := make([]int, 0, 3*(2*st.Ejected+3*st.NewStops))
	for i, g := range order {
		if touched[g] {
			// Seed the stop and its current cycle neighbours (pts
			// index i+1; index 0 is the sink and seeds naturally).
			seeds = append(seeds, i, i+1, (i+2)%len(pts))
		}
	}
	// pos[g] is stop g's index in pts while the passes run, and its
	// visit position once they are done.
	pos := make([]int32, stops)
	var nb *tsp.Neighbors
	if len(seeds) > 0 {
		// The passes read the neighbour lists of only the points they
		// examine, through stopIdx: the survivors keep their previous
		// order in pts, so the grid ranks them as pts does, and the
		// sink and the new stops get a grid of their own.
		if stopIdx == nil {
			stopIdx = geom.NewGridIndexFor(prev.Stops, nw.Range)
		}
		for j := range pos[:m] {
			pos[j] = -1
		}
		for i, g := range order {
			pos[g] = int32(i + 1)
		}
		nb = tsp.NeighborsOn(pts, stopIdx, pos[:m], len(seeds))
	}
	tour, moves := tsp.Improve(pts, nb, tsp.DefaultOptions(), seeds)
	tour.RotateTo(0)
	st.Moves = moves
	spImprove.SetInt("moves", int64(st.Moves))
	spImprove.End()

	// Reassemble in place: the assignment is remapped from global stop
	// ids to visit positions, and pts is permuted into visit order behind
	// the sink (tour[0] = 0), one cycle of the tour at a time, so it
	// becomes the plan's stops. No sensor uploads at an ejected stop, so
	// its stale entry is never read.
	for k, ti := range tour[1:] {
		pos[order[ti-1]] = int32(k)
	}
	for i, s := range assign {
		assign[i] = int(pos[s])
	}
	for k := range tour {
		// Slot j takes pts[tour[j]]; tour[j] = j marks it filled.
		first, j := pts[k], k
		for tour[j] != k {
			next := tour[j]
			pts[j], tour[j] = pts[next], j
			j = next
		}
		pts[j], tour[j] = first, j
	}
	root.SetInt("stops", int64(len(order)))
	root.SetInt("dirty", int64(st.Dirty()))
	return &collector.TourPlan{Sink: nw.Sink, Stops: pts[1:], UploadAt: assign}, st, nil
}
