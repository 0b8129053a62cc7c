package shdgp

import (
	"context"
	"fmt"

	"mobicol/internal/cover"
	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/tsp"
)

// PlannerOptions configures the heuristic planner.
type PlannerOptions struct {
	// TSP configures tour construction and improvement.
	TSP tsp.Options
	// Refine enables the drop-redundant-stop and relocate-stop passes,
	// at most refinePasses rounds of them.
	Refine bool
	// Obs, when non-nil, receives per-phase spans (candidates, cover,
	// tour, refine, tsp) and planner metrics. Nil disables tracing.
	Obs *obs.Trace
}

// refinePasses bounds the drop-redundant/relocate rounds of a plan; the
// loop also stops at the first round that changes nothing.
const refinePasses = 3

// DefaultPlannerOptions is the configuration the experiments label
// "SHDG": greedy covering, greedy-edge + 2-opt + Or-opt tour, refinement.
func DefaultPlannerOptions() PlannerOptions {
	return PlannerOptions{TSP: tsp.DefaultOptions(), Refine: true}
}

// Plan runs the heuristic single-collector planner:
//
//  1. Generate candidate stops and pick a cover greedily, breaking ties
//     toward the sink so stops gravitate inward.
//  2. Tour: order sink + stops once with the TSP engine.
//  3. Refine, editing that tour: drop stops whose sensors are absorbed
//     by remaining stops, and relocate each stop to the candidate that
//     covers the same critical sensors with the smallest detour between
//     its two tour neighbours. A last drop removes the stops the final
//     pass's relocations left redundant.
//  4. Improve the refined tour with the TSP engine's local search.
//
// Plan checks ctx at every phase boundary (candidates → cover → tour →
// refine → tsp) and before each refine pass, and returns ctx's error at
// the first check that finds it done; the candidate, cover, tour and tsp
// phases each run to completion once started.
//
//mdglint:hotpath
func Plan(ctx context.Context, p *Problem, opts PlannerOptions) (*Solution, error) {
	root := opts.Obs.Start("plan")
	defer root.End()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spCand := root.Child("candidates")
	sensors := p.Net.Positions() // the plan's one copy, for the instance and the assignment
	inst, err := p.Instance(sensors)
	if err != nil {
		spCand.End()
		return nil, err
	}
	spCand.SetStr("strategy", p.Strategy.String())
	spCand.SetInt("candidates", int64(len(inst.Candidates)))
	spCand.SetInt("universe", int64(inst.Universe))
	spCand.Gauge("cover.candidates", float64(len(inst.Candidates)))
	spCand.End()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spCover := root.Child("cover")
	chosen, err := inst.GreedyObs(p.Net.Sink, spCover)
	spCover.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	coverStops := len(chosen)

	// From here on chosen lists the stops in visit order: refine edits
	// that tour and the tsp phase improves it.
	spTour := root.Child("tour")
	tourOpts := opts.TSP
	tourOpts.Obs = spTour
	chosen = visitOrder(p, inst, chosen, tourOpts)
	traceTour(spTour, p.Net.Sink, inst, chosen)
	spTour.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if opts.Refine {
		spRefine := root.Child("refine")
		rs := newRefineScratch(inst)
		ran, relocated := 0, 0
		for pass := 0; pass < refinePasses && ctx.Err() == nil; pass++ {
			ran++
			dropped := dropRedundant(inst, &chosen, rs)
			moved := relocateStops(p, inst, &chosen, rs)
			relocated += moved
			if !dropped && moved == 0 {
				break
			}
		}
		// A relocation can take an earlier stop's last critical sensor;
		// after the last pass nothing else removes that stop.
		dropRedundant(inst, &chosen, rs)
		spRefine.SetInt("passes", int64(ran))
		spRefine.SetInt("dropped", int64(coverStops-len(chosen)))
		spRefine.SetInt("relocated", int64(relocated))
		traceTour(spRefine, p.Net.Sink, inst, chosen)
		spRefine.End()
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spTSP := root.Child("tsp")
	tourOpts.Obs = spTSP
	name := "shdg-greedy"
	if opts.Refine {
		name = "shdg-greedy+refine"
	}
	sol := buildSolution(p, sensors, inst, chosen, polish, tourOpts, name)
	spTSP.SetInt("stops", int64(len(chosen)))
	//mdglint:ignore unitcheck obs boundary: trace fields carry raw numbers
	spTSP.SetFloat("tour_m", float64(sol.Length))
	spTSP.End()

	sol.Stats.Candidates = len(inst.Candidates)
	sol.Stats.Universe = inst.Universe
	sol.Stats.CoverStops = coverStops
	root.Gauge("planner.stops", float64(len(sol.Plan.Stops)))
	//mdglint:ignore unitcheck obs boundary: metric gauges carry raw numbers
	root.Gauge("planner.tour_m", float64(sol.Length))
	return sol, nil
}

// visitOrder returns chosen in the visit order of the tour opts builds
// over the sink and chosen's candidates (tsp.Solve).
//
//mdglint:allow-alloc(the cover is ordered once per Plan into a fresh selection)
func visitOrder(p *Problem, inst *cover.Instance, chosen []int, opts tsp.Options) []int {
	_, orderPos := orderStops(p, inst, chosen, tsp.Solve, opts)
	ordered := make([]int, len(chosen))
	for i, c := range chosen {
		ordered[orderPos[i]] = c
	}
	return ordered
}

// polish returns the tour that visits pts in order, improved over its
// whole length by tsp.Improve: the tsp phase's order function.
func polish(pts []geom.Point, opts tsp.Options) tsp.Tour {
	tour, _ := tsp.Improve(pts, nil, opts, nil)
	return tour
}

// traceTour records on sp, as tour_m, the closed length of the tour that
// visits chosen's candidates in order from the sink. It computes the
// length only when sp is traced.
func traceTour(sp *obs.Span, sink geom.Point, inst *cover.Instance, chosen []int) {
	if sp == nil {
		return
	}
	length, at := 0.0, sink
	for _, c := range chosen {
		length += at.Dist(inst.Candidates[c])
		at = inst.Candidates[c]
	}
	sp.SetFloat("tour_m", length+at.Dist(sink))
}

// refineScratch holds the buffers the refinement passes share: coverage
// counts and the critical-sensor scratch. Plan builds one per call and
// reuses it across every refinement pass, so the passes themselves stay
// allocation-free.
type refineScratch struct {
	counts   []int   // counts[s] = kept stops covering sensor s
	critical []int32 // scratch for one stop's critical sensors, ascending
}

// newRefineScratch sizes the buffers for the instance.
//
//mdglint:allow-alloc(refine scratch is built once per Plan and reused across all passes)
func newRefineScratch(inst *cover.Instance) *refineScratch {
	return &refineScratch{counts: make([]int, inst.Universe)}
}

// resetCounts recomputes the coverage counts for the current selection.
func (rs *refineScratch) resetCounts(inst *cover.Instance, chosen []int) {
	for i := range rs.counts {
		rs.counts[i] = 0
	}
	for _, c := range chosen {
		for _, s := range inst.Cover(c) {
			rs.counts[s]++
		}
	}
}

// dropRedundant removes chosen stops whose covered sensors are all covered
// by the other chosen stops. Fewer stops can only shorten the tour. Stops
// are considered in visit order, and the survivors keep it, so a drop
// splices the stop out of the tour. Returns whether anything was dropped.
//
// A coverage-count cache makes this a single O(k·cover) pass: stop c is
// redundant exactly when every sensor it covers has coverage count >= 2,
// and removals only decrement counts, so a stop that survives its check
// can never become redundant later. That monotonicity makes the
// left-to-right pass with live counts equivalent to the old
// remove-first-and-restart fixed point (TestDropRedundantMatchesOracle
// pins it), without rebuilding an O(k) bitset union per stop per round.
func dropRedundant(inst *cover.Instance, chosen *[]int, rs *refineScratch) bool {
	cur := *chosen
	rs.resetCounts(inst, cur)
	counts := rs.counts
	redundant := func(c int) bool {
		for _, s := range inst.Cover(c) {
			if counts[s] < 2 {
				return false
			}
		}
		return true
	}
	out := cur[:0]
	dropped := false
	for _, c := range cur {
		if redundant(c) {
			for _, s := range inst.Cover(c) {
				counts[s]--
			}
			dropped = true
			continue
		}
		//mdglint:allow-alloc(out aliases cur[:0]; the append writes into the selection's own storage)
		out = append(out, c)
	}
	*chosen = out
	return dropped
}

// relocateStops walks chosen in visit order and edits each stop with
// this pass's earlier edits in place. A stop without critical sensors
// (those no other chosen stop covers) is redundant and is spliced out.
// Any other stop moves to the candidate that still covers its critical
// sensors with the smallest detour between its two tour neighbours: the
// kept stop before it and the stop after it in chosen, or the sink past
// either end. Returns how many stops moved.
func relocateStops(p *Problem, inst *cover.Instance, chosen *[]int, rs *refineScratch) int {
	// counts[s] = number of chosen stops covering sensor s, maintained
	// across edits so each stop's critical set (sensors only it covers,
	// i.e. count exactly 1) reflects every earlier one — the same set
	// the old per-stop O(k) bitset union produced.
	cur := *chosen
	rs.resetCounts(inst, cur)
	counts := rs.counts
	out := cur[:0]
	moved := 0
	for i, c := range cur {
		// The critical set inherits ascending order from the cover list,
		// so subset checks against other covers are sorted merges.
		critical := rs.critical[:0]
		for _, s := range inst.Cover(c) {
			if counts[s] == 1 {
				//mdglint:allow-alloc(append reuses critical-set capacity retained in the scratch)
				critical = append(critical, s)
			}
		}
		rs.critical = critical
		if len(critical) == 0 {
			for _, s := range inst.Cover(c) {
				counts[s]--
			}
			continue
		}
		prev, next := p.Net.Sink, p.Net.Sink
		if len(out) > 0 {
			prev = inst.Candidates[out[len(out)-1]]
		}
		if i+1 < len(cur) {
			next = inst.Candidates[cur[i+1]]
		}
		at := inst.Candidates[c]
		bestCost, best := prev.Dist(at)+at.Dist(next), c
		// Any replacement must cover every critical sensor, so scanning
		// the coverers of the first one — ascending, like a scan of every
		// candidate — preserves tie-breaks while touching a handful.
		for _, alt := range inst.Coverers(int(critical[0])) {
			a := int(alt)
			if a == c || !cover.SubsetOfSorted(critical, inst.Cover(a)) {
				continue
			}
			q := inst.Candidates[a]
			if cost := prev.Dist(q) + q.Dist(next); cost < bestCost-1e-9 {
				bestCost, best = cost, a
			}
		}
		if best != c {
			for _, s := range inst.Cover(c) {
				counts[s]--
			}
			for _, s := range inst.Cover(best) {
				counts[s]++
			}
			moved++
		}
		//mdglint:allow-alloc(out aliases cur[:0]; the append writes into the selection's own storage)
		out = append(out, best)
	}
	*chosen = out
	return moved
}

// PlanVisitAll returns the "d = 0" extreme: the collector visits every
// sensor position (single hop at zero distance). The paper's introduction
// uses it to motivate covering stops; the experiments use it as the
// maximum-energy-saving baseline.
func PlanVisitAll(p *Problem, opts tsp.Options) (*Solution, error) {
	sensors := p.Net.Positions()
	if len(sensors) == 0 {
		return nil, fmt.Errorf("shdgp: empty network")
	}
	inst := cover.NewInstancePool(sensors, sensors, p.Net.Range, p.Pool)
	chosen := make([]int, len(inst.Candidates))
	for i := range chosen {
		chosen[i] = i
	}
	// Assign every sensor to its own position, not the nearest stop: with
	// all sensors as stops the nearest stop IS its own position.
	sol := buildSolution(p, sensors, inst, chosen, tsp.Solve, opts, "visit-all-tsp")
	return sol, nil
}
