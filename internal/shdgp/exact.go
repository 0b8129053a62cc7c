package shdgp

import (
	"context"
	"fmt"
	"math"
	"slices"

	"mobicol/internal/bitset"
	"mobicol/internal/cover"
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

// PlanExact solves the SHDGP to optimality over the dominance-pruned
// candidates (within the exact limits above) by enumerating covers and
// solving each leaf's TSP exactly. It checks ctx inside the heuristic
// incumbent's phases, every exactCheckEvery enumeration nodes and before
// each leaf's tour, and returns ctx's error at the first check that
// finds it done.
//
// Exact=true certifies that optimum over the pruned candidates only.
// Dominance is a set-cover notion: a candidate whose sensors another
// candidate also covers is pruned, though it can sit closer to the tour.
// The search starts from the heuristic planner's plan, which chooses
// among every candidate, and returns the shorter of that incumbent and
// the best pruned cover. The returned tour is never longer than the
// pruned optimum and can be shorter: on 8 clustered sensors (150 m
// field, 20 m range, grid candidates, seed 3) the heuristic's 219.5 m
// beats the best pruned cover's 269.8 m
// (TestPlanExactCertifiesPrunedCandidatesOnly).
//
// Enumeration branches on the lowest-index uncovered sensor: any feasible
// cover must contain some candidate covering it, so the search tree is
// complete over *minimal* covers. Supersets of a cover are never cheaper —
// in a metric space, the optimal tour over a superset of stops is at least
// the optimal tour over the subset — so restricting to minimal covers
// preserves optimality. Partial selections are pruned with the MST lower
// bound over {sink} ∪ chosen stops for the same monotonicity reason, and,
// when that does not prune, with a bound per uncovered sensor s: every
// completion visits some candidate c covering s, so its tour is at least
// the cheapest such c's max(2·|sink c|, |sink q| + |q c| + |c sink|) over
// the chosen stops q. On a line the MST is half the tour and prunes
// little; the per-sensor bound is what ends the search there.
func PlanExact(ctx context.Context, p *Problem) (*Solution, error) {
	sensors := p.Net.Positions()
	instFull, err := p.Instance(sensors)
	if err != nil {
		return nil, err
	}
	inst, orig := instFull.Prune()
	if inst.NumCandidates() > exactMaxCandidates {
		return nil, fmt.Errorf("shdgp: exact solver limited to %d candidates, instance has %d after pruning",
			exactMaxCandidates, inst.NumCandidates())
	}
	// Incumbent from the heuristic planner: tight pruning from node one.
	heur, err := Plan(ctx, p, DefaultPlannerOptions())
	if err != nil {
		return nil, err
	}
	bestChosen, _, exact, err := searchCovers(ctx, inst, p.Net.Sink, heur.Length)
	if err != nil {
		return nil, err
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
	sol := buildSolution(p, sensors, instFull, mapped, tsp.Solve, exactTSP(), "exact")
	sol.Exact = exact
	return sol, nil
}

// searchCovers runs PlanExact's enumeration over inst's minimal covers,
// touring each leaf from sink by Held–Karp. It returns the cheapest cover
// shorter than incumbent (nil when none is) with its tour length, whether
// the search closed without hitting a limit, and ctx's error if a check
// found it done.
func searchCovers(ctx context.Context, inst *cover.Instance, sink geom.Point, incumbent geom.Meters) ([]int, geom.Meters, bool, error) {
	// Bounded to exactMaxCandidates candidates: the dense set view is
	// cheap and keeps the enumeration on bitset algebra.
	covers := inst.CoverSets()
	bestLen := incumbent
	var bestChosen []int
	exact := true

	// coversSensor[s]: candidates covering s, largest cover first; the
	// stable sort keeps equal covers in ascending candidate order.
	coversSensor := make([][]int32, inst.Universe)
	for s := range coversSensor {
		cs := append([]int32(nil), inst.Coverers(s)...)
		slices.SortStableFunc(cs, func(a, b int32) int { return len(inst.Cover(int(b))) - len(inst.Cover(int(a))) })
		coversSensor[s] = cs
	}
	sinkDist := make([]float64, inst.NumCandidates())
	for c, pc := range inst.Candidates {
		sinkDist[c] = sink.Dist(pc)
	}

	uncovered := bitset.New(inst.Universe)
	uncovered.Fill()
	var cur []int
	nodes := 0
	var canceled error

	// tourPoints rebuilds the sink plus cur's stops in one buffer that
	// every bound and leaf reuses.
	pts := make([]geom.Point, 0, exactMaxStops+1)
	tourPoints := func() []geom.Point {
		pts = append(pts[:0], sink)
		for _, c := range cur {
			pts = append(pts, inst.Candidates[c])
		}
		return pts
	}
	// pruned reports whether no completion of cur can beat bestLen.
	pruned := func() bool {
		limit := bestLen - 1e-9
		if tsp.MSTLowerBound(tourPoints()) >= limit {
			return true
		}
		for s := uncovered.NextSet(0); s >= 0; s = uncovered.NextSet(s + 1) {
			affordable := false
			for _, c := range coversSensor[s] {
				pc := inst.Candidates[c]
				lb := 2 * sinkDist[c]
				for _, q := range cur {
					lb = max(lb, sinkDist[q]+inst.Candidates[q].Dist(pc)+sinkDist[c])
				}
				if geom.Meters(lb) < limit {
					affordable = true
					break
				}
			}
			if !affordable {
				return true // every candidate covering s is too far out
			}
		}
		return false
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
			// A leaf's Held–Karp tour can take milliseconds, far longer
			// than exactCheckEvery nodes, so every leaf checks ctx.
			if canceled = ctx.Err(); canceled != nil {
				return
			}
			leaf := tourPoints()
			if l := tsp.Solve(leaf, exactTSP()).Length(leaf); l < bestLen-1e-9 {
				bestLen = l
				bestChosen = append(bestChosen[:0], cur...)
			}
			return
		}
		if pruned() {
			return
		}
		if len(cur) >= exactMaxStops {
			// A cheaper cover may need more stops than the search
			// considers, so the result is no longer proven optimal.
			exact = false
			return
		}
		s := uncovered.NextSet(0)
		for _, c32 := range coversSensor[s] {
			c := int(c32)
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
	return bestChosen, bestLen, exact, canceled
}

// MinStopsILP returns the LP-certified minimum number of stops for the
// instance — the set-cover component of the paper's MIP, solved with the
// in-repo branch-and-bound ILP, capped at ilpMaxNodes nodes (the bool
// reports whether the search closed). It is used by the E1 experiment to
// verify the combinatorial exact search against an independent solver.
func MinStopsILP(p *Problem) (int, bool, error) {
	full, err := p.Instance(p.Net.Positions())
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
