package shdgp

import (
	"context"
	"fmt"
	"math"

	"mobicol/internal/bitset"
	"mobicol/internal/geom"
	"mobicol/internal/lp"
	"mobicol/internal/tsp"
)

// The exact solver's limits. The paper only certifies optima on small
// networks (CPLEX on ~25-sensor instances); the same restriction applies
// here.
const (
	// exactMaxCandidates rejects instances with more candidates after
	// dominance pruning.
	exactMaxCandidates = 64
	// exactMaxStops bounds the covers the enumeration considers, keeping
	// every leaf tour within Held–Karp range; a search that had to cut a
	// branch at this bound reports Exact=false.
	exactMaxStops = 14
	// exactMaxNodes caps enumeration nodes; when it trips, the best
	// solution found is returned with Exact=false.
	exactMaxNodes = 5_000_000
	// exactCheckEvery is the enumeration-node stride between
	// cancellation checks.
	exactCheckEvery = 4096
	// ilpMaxNodes caps MinStopsILP's branch and bound.
	ilpMaxNodes = 200_000
)

// A leaf tour and the final tour hold the sink plus at most
// exactMaxStops stops; this constant fails to compile should that ever
// exceed Held–Karp's range, so exactTSP always solves them exactly.
const _ = uint(tsp.HeldKarpMax - exactMaxStops - 1)

// exactTSP solves every tour of at most tsp.HeldKarpMax points by
// Held–Karp.
func exactTSP() tsp.Options {
	return tsp.Options{Construction: tsp.ConstructGreedy, TwoOpt: true, OrOpt: true, ExactBelow: tsp.HeldKarpMax}
}

// PlanExact solves the SHDGP to optimality (within the exact limits
// above) by enumerating covers and solving each leaf's TSP exactly. It
// checks ctx inside the heuristic incumbent's phases and every
// exactCheckEvery enumeration nodes, and returns ctx's error at the
// first check that finds it done.
//
// Enumeration branches on the lowest-index uncovered sensor: any feasible
// cover must contain some candidate covering it, so the search tree is
// complete over *minimal* covers. Supersets of a cover are never cheaper —
// in a metric space, the optimal tour over a superset of stops is at least
// the optimal tour over the subset — so restricting to minimal covers
// preserves optimality. Partial selections are pruned with the MST lower
// bound over {sink} ∪ chosen stops for the same monotonicity reason.
func PlanExact(ctx context.Context, p *Problem) (*Solution, error) {
	instFull, err := p.Instance()
	if err != nil {
		return nil, err
	}
	inst, orig := instFull.Prune()
	if inst.NumCandidates() > exactMaxCandidates {
		return nil, fmt.Errorf("shdgp: exact solver limited to %d candidates, instance has %d after pruning",
			exactMaxCandidates, inst.NumCandidates())
	}
	// Bounded to exactMaxCandidates candidates: the dense set view is
	// cheap and keeps the enumeration on bitset algebra.
	covers := inst.CoverSets()

	// Incumbent from the heuristic planner: tight pruning from node one.
	heur, err := Plan(ctx, p, DefaultPlannerOptions())
	if err != nil {
		return nil, err
	}
	bestLen := heur.Length
	var bestChosen []int
	exact := true

	// coversSensor[s]: candidates covering s, largest cover first.
	coversSensor := make([][]int, inst.Universe)
	for c, set := range covers {
		set.ForEach(func(s int) { coversSensor[s] = append(coversSensor[s], c) })
	}
	for s := range coversSensor {
		cs := coversSensor[s]
		for i := 1; i < len(cs); i++ {
			for j := i; j > 0 && covers[cs[j]].Count() > covers[cs[j-1]].Count(); j-- {
				cs[j], cs[j-1] = cs[j-1], cs[j]
			}
		}
	}

	uncovered := bitset.New(inst.Universe)
	uncovered.Fill()
	var cur []int
	nodes := 0
	var canceled error

	tourLB := func() geom.Meters {
		pts := make([]geom.Point, 0, len(cur)+1)
		pts = append(pts, p.Net.Sink)
		for _, c := range cur {
			pts = append(pts, inst.Candidates[c])
		}
		return tsp.MSTLowerBound(pts)
	}
	leafLen := func() geom.Meters {
		pts := make([]geom.Point, 0, len(cur)+1)
		pts = append(pts, p.Net.Sink)
		for _, c := range cur {
			pts = append(pts, inst.Candidates[c])
		}
		return tsp.Solve(pts, exactTSP()).Length(pts)
	}

	var rec func()
	rec = func() {
		nodes++
		if nodes > exactMaxNodes {
			exact = false
			return
		}
		if nodes%exactCheckEvery == 0 {
			if canceled = ctx.Err(); canceled != nil {
				return
			}
		}
		if uncovered.Empty() {
			if l := leafLen(); l < bestLen-1e-9 {
				bestLen = l
				bestChosen = append(bestChosen[:0], cur...)
			}
			return
		}
		if tourLB() >= bestLen-1e-9 {
			return
		}
		if len(cur) >= exactMaxStops {
			// A cheaper cover may need more stops than the search
			// considers, so the result is no longer proven optimal.
			exact = false
			return
		}
		s := uncovered.NextSet(0)
		for _, c := range coversSensor[s] {
			newly := covers[c].Clone()
			newly.And(uncovered)
			if newly.Empty() {
				continue // c covers nothing new on this branch
			}
			uncovered.AndNot(covers[c])
			cur = append(cur, c)
			rec()
			cur = cur[:len(cur)-1]
			uncovered.Or(newly)
			if nodes > exactMaxNodes || canceled != nil {
				return
			}
		}
	}
	rec()
	if canceled != nil {
		return nil, canceled
	}

	if bestChosen == nil {
		// The heuristic was already optimal (or the cap tripped before
		// anything better appeared). Re-label and return it.
		heur.Exact = exact
		heur.Algorithm = "exact(=heuristic)"
		if !exact {
			heur.Algorithm = "exact-capped(heuristic incumbent)"
		}
		return heur, nil
	}
	mapped := make([]int, len(bestChosen))
	for i, c := range bestChosen {
		mapped[i] = orig[c]
	}
	sol := buildSolution(p, instFull, mapped, exactTSP(), "exact")
	sol.Exact = exact
	return sol, nil
}

// MinStopsILP returns the LP-certified minimum number of stops for the
// instance — the set-cover component of the paper's MIP, solved with the
// in-repo branch-and-bound ILP, capped at ilpMaxNodes nodes (the bool
// reports whether the search closed). It is used by the E1 experiment to
// verify the combinatorial exact search against an independent solver.
func MinStopsILP(p *Problem) (int, bool, error) {
	full, err := p.Instance()
	if err != nil {
		return 0, false, err
	}
	inst, _ := full.Prune()
	m := lp.SetCoverModel(inst.Universe, inst.CoverSets())
	sol, err := m.SolveBinary(ilpMaxNodes)
	if err != nil {
		return 0, false, err
	}
	if sol.Status != lp.Optimal {
		return 0, false, fmt.Errorf("shdgp: set-cover ILP status %v", sol.Status)
	}
	return int(math.Round(sol.Obj)), sol.Exact, nil
}
