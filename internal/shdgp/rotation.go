package shdgp

import (
	"fmt"
	"math"

	"mobicol/internal/tsp"
)

// PlanDiverse returns up to k structurally different solutions for the
// same problem by steering the greedy cover's tie-break toward k points
// spread around the sink. Different tie-breaks pull the chosen stops
// toward different sides of the field, so the plans stress different
// sensors' upload distances — the raw material for round-robin rotation,
// which averages each sensor's per-round cost and postpones the first
// death (lifetime is set by the per-sensor *mean* cost under rotation,
// versus the worst single-plan cost without it).
//
// Duplicate plans (identical stop multisets) are filtered; fewer than k
// plans may come back on fields where the cover is insensitive to the
// tie-break.
func PlanDiverse(p *Problem, k int) ([]*Solution, error) {
	if k <= 0 {
		return nil, fmt.Errorf("shdgp: need at least one plan, got %d", k)
	}
	inst, err := p.Instance()
	if err != nil {
		return nil, err
	}
	spread := p.Net.Field.Width() / 4
	var out []*Solution
	seen := map[string]bool{}
	for j := 0; j < k; j++ {
		tieBreak := p.Net.Sink
		if j > 0 {
			theta := 2 * math.Pi * float64(j-1) / float64(k-1)
			tieBreak = p.Net.Sink.Polar(spread, theta)
		}
		chosen, err := inst.Greedy(tieBreak)
		if err != nil {
			return nil, err
		}
		sol := buildSolution(p, inst, chosen, tsp.Solve, tsp.DefaultOptions(), fmt.Sprintf("shdg-diverse%d", j))
		key := stopKey(sol)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, sol)
	}
	return out, nil
}

// stopKey canonically fingerprints a solution's stop set.
func stopKey(sol *Solution) string {
	// Stops are few; an order-insensitive fingerprint via sorted strings.
	keys := make([]string, len(sol.Plan.Stops))
	for i, s := range sol.Plan.Stops {
		keys[i] = s.String()
	}
	// Insertion sort: n is tiny.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := ""
	for _, k := range keys {
		out += k + ";"
	}
	return out
}
