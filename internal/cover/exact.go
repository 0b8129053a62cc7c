package cover

import "mobicol/internal/bitset"

// ExactMin finds a minimum-cardinality cover by branch and bound. The
// search branches on the lowest-index uncovered sensor (every cover must
// contain some candidate covering it), prunes dominated candidates first,
// and bounds with the greedy-rounded LP estimate |uncovered| / maxCover.
// maxNodes caps the search (0 = unlimited); when it trips, the best cover
// found so far is returned with exact=false. Instances the paper solves
// with CPLEX are tiny (tens of sensors), where this search is instant.
//
//mdglint:allow-alloc(exact search is the small-instance certification path, not the planning hot loop)
func (in *Instance) ExactMin(maxNodes int) (chosen []int, exact bool, err error) {
	if err := in.Err(); err != nil {
		return nil, false, err
	}
	pruned, orig := in.Prune()
	// Exact search is a small-instance path: the dense set view is fine
	// here and keeps the branch bookkeeping on fast bitset algebra.
	covers := pruned.CoverSets()

	// Incumbent from greedy.
	greedy, err := pruned.Greedy(pruned.Candidates[0])
	if err != nil {
		return nil, false, err
	}
	best := append([]int(nil), greedy...)
	exact = true

	// coversSensor[s] lists candidates covering sensor s, biggest first
	// (so promising branches are explored early).
	coversSensor := make([][]int, pruned.Universe)
	for c, set := range covers {
		set.ForEach(func(s int) {
			coversSensor[s] = append(coversSensor[s], c)
		})
	}
	for s := range coversSensor {
		cs := coversSensor[s]
		for i := 1; i < len(cs); i++ {
			for j := i; j > 0 && covers[cs[j]].Count() > covers[cs[j-1]].Count(); j-- {
				cs[j], cs[j-1] = cs[j-1], cs[j]
			}
		}
	}
	maxCover := 1
	for _, set := range covers {
		if c := set.Count(); c > maxCover {
			maxCover = c
		}
	}

	uncovered := bitset.New(pruned.Universe)
	uncovered.Fill()
	var cur []int
	nodes := 0

	var rec func()
	rec = func() {
		nodes++
		if maxNodes > 0 && nodes > maxNodes {
			exact = false
			return
		}
		rem := uncovered.Count()
		if rem == 0 {
			if len(cur) < len(best) {
				best = append(best[:0], cur...)
			}
			return
		}
		// Lower bound: even the largest candidate covers <= maxCover new
		// sensors per pick.
		lb := (rem + maxCover - 1) / maxCover
		if len(cur)+lb >= len(best) {
			return
		}
		s := uncovered.NextSet(0)
		for _, c := range coversSensor[s] {
			// Save the covered subset to restore after the branch.
			newly := covers[c].Clone()
			newly.And(uncovered)
			uncovered.AndNot(covers[c])
			cur = append(cur, c)
			rec()
			cur = cur[:len(cur)-1]
			uncovered.Or(newly)
			if maxNodes > 0 && nodes > maxNodes {
				return
			}
		}
	}
	rec()

	out := make([]int, len(best))
	for i, c := range best {
		out[i] = orig[c]
	}
	return out, exact, nil
}
