package shdgp

import (
	"fmt"
	"sort"

	"mobicol/internal/bitset"
	"mobicol/internal/collector"
	"mobicol/internal/graph"
	"mobicol/internal/tsp"
)

// PlanCapacitated plans a tour in which no stop serves more than cap
// sensors. The bound models the polling point's packet buffer: a stop must
// hold its sensors' packets until the collector arrives, so the buffer
// size caps how many sensors may affiliate with it (the buffer-overflow
// concern the paper raises when motivating planned mobile gathering).
//
// Selection is capacity-aware greedy: pick the unused candidate with the
// largest capped marginal coverage (ties toward the sink), then assign it
// its cap nearest uncovered sensors. Because every sensor's own site is a
// candidate in all strategies and a sensor is its own nearest uncovered
// sensor at distance zero, the loop always makes progress, so any cap >= 1
// is feasible.
func PlanCapacitated(p *Problem, cap int) (*Solution, error) {
	if cap <= 0 {
		return nil, fmt.Errorf("shdgp: capacity must be positive, got %d", cap)
	}
	sensors := p.Net.Positions()
	inst, err := p.Instance(sensors)
	if err != nil {
		return nil, err
	}

	uncovered := bitset.New(inst.Universe)
	uncovered.Fill()
	used := make([]bool, inst.NumCandidates())
	var stopsCand []int     // chosen candidate per stop
	var stopsAssign [][]int // sensors served by each stop

	for !uncovered.Empty() {
		best, bestGain := -1, 0
		var bestDist float64
		for c := 0; c < inst.NumCandidates(); c++ {
			if used[c] {
				continue
			}
			gain := inst.GainAgainst(c, uncovered)
			if gain > cap {
				gain = cap
			}
			if gain == 0 {
				continue
			}
			dist := inst.Candidates[c].Dist2(p.Net.Sink)
			if gain > bestGain || (gain == bestGain && dist < bestDist) {
				best, bestGain, bestDist = c, gain, dist
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("shdgp: capacitated greedy stalled with %d sensors uncovered", uncovered.Count())
		}
		used[best] = true
		// Serve the cap nearest uncovered sensors in this stop's range.
		var eligible []int
		for _, s := range inst.Cover(best) {
			if uncovered.Has(int(s)) {
				eligible = append(eligible, int(s))
			}
		}
		pos := inst.Candidates[best]
		sort.Slice(eligible, func(a, b int) bool {
			return sensors[eligible[a]].Dist2(pos) < sensors[eligible[b]].Dist2(pos)
		})
		if len(eligible) > cap {
			eligible = eligible[:cap]
		}
		for _, s := range eligible {
			uncovered.Remove(s)
		}
		stopsCand = append(stopsCand, best)
		stopsAssign = append(stopsAssign, eligible)
	}

	orderedStops, orderPos := orderStops(p, inst, stopsCand, tsp.Solve, tsp.DefaultOptions())
	uploadAt := make([]int, len(sensors))
	for i := range uploadAt {
		uploadAt[i] = -1
	}
	for sIdx, members := range stopsAssign {
		for _, s := range members {
			uploadAt[s] = orderPos[sIdx]
		}
	}
	plan := &collector.TourPlan{Sink: p.Net.Sink, Stops: orderedStops, UploadAt: uploadAt}
	return &Solution{
		Plan:      plan,
		Length:    plan.Length(),
		Algorithm: fmt.Sprintf("shdg-cap%d", cap),
	}, nil
}

// ValidateCapacity checks that no stop serves more than cap sensors.
func (s *Solution) ValidateCapacity(cap int) error {
	for stop, count := range s.Plan.SensorsAt() {
		if count > cap {
			return fmt.Errorf("shdgp: stop %d serves %d sensors, capacity %d", stop, count, cap)
		}
	}
	return nil
}

// PlanSweep is an alternative heuristic in the traversal family: build a
// hop-count shortest-path tree over each connected component (rooted at
// the component's sensor nearest the sink), walk it in preorder, and the
// first time the walk reaches an uncovered sensor, open a stop at the
// candidate that covers it with the largest uncovered gain. The walk makes
// consecutive stops spatially coherent, which the final TSP pass then
// exploits. It exists as an E8 ablation point against the global greedy.
func PlanSweep(p *Problem, opts tsp.Options) (*Solution, error) {
	sensors := p.Net.Positions()
	inst, err := p.Instance(sensors)
	if err != nil {
		return nil, err
	}
	if len(sensors) == 0 {
		return nil, fmt.Errorf("shdgp: empty network")
	}
	uncovered := bitset.New(inst.Universe)
	uncovered.Fill()
	var chosen []int
	for _, s := range sweepOrder(p) {
		if !uncovered.Has(s) {
			continue
		}
		best, bestGain := -1, -1
		for _, c := range inst.Coverers(s) {
			if gain := inst.GainAgainst(int(c), uncovered); gain > bestGain {
				best, bestGain = int(c), gain
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("shdgp: sweep found no candidate for sensor %d", s)
		}
		chosen = append(chosen, best)
		for _, sv := range inst.Cover(best) {
			uncovered.Remove(int(sv))
		}
	}
	sol := buildSolution(p, sensors, inst, chosen, tsp.Solve, opts, "shdg-sweep")
	return sol, nil
}

// sweepOrder returns all sensors in component-by-component preorder of the
// hop-count SPT rooted at each component's sensor nearest the sink.
func sweepOrder(p *Problem) []int {
	nw := p.Net
	g := nw.Graph()
	order := make([]int, 0, nw.N())
	for _, comp := range nw.Components() {
		root := comp[0]
		bestD := nw.Nodes[root].Pos.Dist2(nw.Sink)
		for _, v := range comp[1:] {
			if d := nw.Nodes[v].Pos.Dist2(nw.Sink); d < bestD {
				root, bestD = v, d
			}
		}
		// Preorder walk of the BFS tree: the hop-count SPT of the
		// component.
		r := graph.BFS(g, root)
		tree := graph.NewTreeFromParents(root, r.Parent)
		order = append(order, tree.Preorder()...)
	}
	return order
}
