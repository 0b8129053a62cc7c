// Package replan repairs an existing single-hop gathering plan after a
// small scenario change instead of replanning from scratch. The paper's
// deployments are static, but real fields drift: sensors die, get moved,
// or are redeployed a few at a time. When the delta is small, almost all
// of a previous tour remains optimal — warm-start repair keeps it.
//
// The repair contract, enforced by the metamorphic tests:
//
//   - Δ=∅ is the identity: repairing a plan against an unchanged network
//     returns a bit-identical plan (same stop order, same assignment).
//   - Repaired plans satisfy the full check.Plan oracle — single-hop
//     coverage on a sink-anchored tour, like any cold plan.
//   - The result is byte-identical at any worker-pool size.
//   - Quality stays within check.MaxWarmRatio of a cold replan.
//
// The pipeline mirrors the cold planner but touches only dirty state:
// carry over every still-in-range assignment, rehome the rest onto kept
// stops through a grid over the stop set, cover the leftovers with a
// greedy disk cover of their own sites, eject stops that lost all their
// sensors, splice each new stop into the previous visit order right
// after its nearest surviving stop, and run one seeded tsp.Improve
// around the touched tour segments only. Its Or-opt pass moves each new
// stop on to a cheaper slot beside its nearest stops.
//
// A round's cost follows the delta, not the tour. The splice finds each
// new stop's nearest stop through the rehome grid. The seeded passes
// compute the neighbour lists of only the points they examine, and an
// Or-opt move shifts only the stops between the segment and its new
// place.
package replan

import (
	"fmt"
	"slices"

	"mobicol/internal/collector"
	"mobicol/internal/geom"
	"mobicol/internal/rng"
	"mobicol/internal/wsn"
)

// Move relocates one sensor of the previous scenario.
type Move struct {
	Index int        // sensor index in the previous network
	To    geom.Point // new position
}

// Delta is a scenario change relative to the network a plan was computed
// for: sensors removed, moved, and added. The zero value is the empty
// delta.
type Delta struct {
	Removed []int
	Moved   []Move
	Added   []geom.Point
}

// Apply builds the post-delta network and carries a previous assignment
// into its indexing: surviving sensors keep their prevUpload entry
// (positional identity — a moved sensor keeps its assignment and is
// re-validated geometrically by Repair), added sensors get -1. Removal
// wins when an index is both removed and moved, and the last move of an
// index wins over earlier ones; surviving sensors keep their relative
// order, added sensors append after them. The survivors come from one
// walk of the nodes against a sorted copy of Removed, and each move
// finds its survivor's slot by binary search in that copy, so the cost
// is O(n + |Δ| log |Δ|) and the delta's own slices are left as they are.
func (d Delta) Apply(prev *wsn.Network, prevUpload []int) (*wsn.Network, []int, error) {
	n := prev.N()
	if len(prevUpload) != n {
		return nil, nil, fmt.Errorf("replan: %d carried assignments for %d sensors", len(prevUpload), n)
	}
	for _, i := range d.Removed {
		if i < 0 || i >= n {
			return nil, nil, fmt.Errorf("replan: removed index %d out of range [0,%d)", i, n)
		}
	}
	for _, m := range d.Moved {
		if m.Index < 0 || m.Index >= n {
			return nil, nil, fmt.Errorf("replan: moved index %d out of range [0,%d)", m.Index, n)
		}
	}
	removed := append([]int(nil), d.Removed...)
	slices.Sort(removed)
	removed = slices.Compact(removed)
	positions := make([]geom.Point, 0, n-len(removed)+len(d.Added))
	carried := make([]int, 0, cap(positions))
	next := removed
	for i, node := range prev.Nodes {
		if len(next) > 0 && next[0] == i {
			next = next[1:]
			continue
		}
		positions = append(positions, node.Pos)
		carried = append(carried, prevUpload[i])
	}
	// Survivor i sits at i minus the removals below it. Moves apply in
	// order, so the last move of an index wins.
	for _, m := range d.Moved {
		if below, gone := slices.BinarySearch(removed, m.Index); !gone {
			positions[m.Index-below] = m.To
		}
	}
	for _, p := range d.Added {
		positions = append(positions, p)
		carried = append(carried, -1)
	}
	return wsn.New(positions, prev.Sink, prev.Range, prev.Field), carried, nil
}

// CarryPositional matches a previous plan's assignment to a network of n
// sensors by index: sensor i carries prev.UploadAt[i] when it exists, -1
// otherwise. This is the CLI-facing identity model for scenarios saved
// and re-deployed with stable sensor ordering; Repair re-validates every
// carried assignment geometrically, so stale entries only cost a rehome.
func CarryPositional(prev *collector.TourPlan, n int) []int {
	carried := make([]int, n)
	for i := range carried {
		if i < len(prev.UploadAt) {
			carried[i] = prev.UploadAt[i]
		} else {
			carried[i] = -1
		}
	}
	return carried
}

// Perturb builds a reproducible delta from k ≈ frac·N picked sensors (at
// least 1, at most N): the first k/4 picks are removed, the other
// k − k/4 are moved by a jitter of up to one transmission range (clamped
// to the field), and k/4 new sensors are added uniformly over the field.
// It is the scenario generator the warm-start benchmarks and tests
// share.
func Perturb(nw *wsn.Network, frac float64, seed uint64) Delta {
	n := nw.N()
	if n == 0 || frac <= 0 {
		return Delta{}
	}
	k := int(frac*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	r := rng.New(seed)
	picked := r.Perm(n)[:k]
	nRemoved := k / 4
	nAdded := k / 4
	var d Delta
	for i, idx := range picked {
		switch {
		case i < nRemoved:
			d.Removed = append(d.Removed, idx)
		default:
			old := nw.Nodes[idx].Pos
			jit := geom.Point{
				X: old.X + r.Uniform(-nw.Range, nw.Range),
				Y: old.Y + r.Uniform(-nw.Range, nw.Range),
			}
			d.Moved = append(d.Moved, Move{Index: idx, To: nw.Field.Clamp(jit)})
		}
	}
	for i := 0; i < nAdded; i++ {
		d.Added = append(d.Added, geom.Point{
			X: r.Uniform(nw.Field.Min.X, nw.Field.Max.X),
			Y: r.Uniform(nw.Field.Min.Y, nw.Field.Max.Y),
		})
	}
	return d
}
