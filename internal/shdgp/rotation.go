package shdgp

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mobicol/internal/geom"
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
	sensors := p.Net.Positions()
	inst, err := p.Instance(sensors)
	if err != nil {
		return nil, err
	}
	spread := p.Net.Field.Width() / 4
	var out []*Solution
	var seen [][]geom.Point
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
		sol := buildSolution(p, sensors, inst, chosen, tsp.Solve, tsp.DefaultOptions(), fmt.Sprintf("shdg-diverse%d", j))
		key := stopKey(sol)
		if slices.ContainsFunc(seen, func(s []geom.Point) bool { return slices.Equal(s, key) }) {
			continue
		}
		seen = append(seen, key)
		out = append(out, sol)
	}
	return out, nil
}

// stopKey returns a solution's stops sorted by (x, y): two solutions
// share a key exactly when their stop multisets are identical.
func stopKey(sol *Solution) []geom.Point {
	key := append([]geom.Point(nil), sol.Plan.Stops...)
	slices.SortFunc(key, func(a, b geom.Point) int { return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y)) })
	return key
}
