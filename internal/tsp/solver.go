package tsp

import (
	"fmt"

	"mobicol/internal/geom"
	"mobicol/internal/obs"
)

// Construction selects the tour-construction heuristic.
type Construction int

const (
	// ConstructNN is nearest neighbour from point 0.
	ConstructNN Construction = iota
	// ConstructGreedy is greedy-edge matching.
	ConstructGreedy
	// ConstructChristofides is MST + odd-vertex matching + Euler walk.
	ConstructChristofides
)

// name is the construction's String and trace name, "" when unknown.
// Solve traces through it rather than String: String's formatted
// fallback, once inlined, would add a heap escape to Solve.
func (c Construction) name() string {
	switch c {
	case ConstructNN:
		return "nearest-neighbor"
	case ConstructGreedy:
		return "greedy-edge"
	case ConstructChristofides:
		return "christofides"
	}
	return ""
}

// String names the construction.
func (c Construction) String() string {
	if name := c.name(); name != "" {
		return name
	}
	return fmt.Sprintf("Construction(%d)", int(c))
}

// Options configures Solve.
type Options struct {
	Construction Construction
	TwoOpt       bool // run 2-opt local search
	OrOpt        bool // run Or-opt local search (after 2-opt)
	ExactBelow   int  // use Held–Karp when n <= ExactBelow (and <= HeldKarpMax)
	// Obs, when non-nil, receives one child span per solver stage
	// (construction and each improvement pass) with the tour-length
	// delta each stage contributed. Nil disables tracing at zero cost.
	Obs *obs.Span
}

// DefaultOptions is the configuration the planners use: greedy-edge
// construction, both local searches, exact solving for tiny instances.
func DefaultOptions() Options {
	return Options{Construction: ConstructGreedy, TwoOpt: true, OrOpt: true, ExactBelow: 12}
}

// Solve returns a closed tour over pts according to opts: the Held–Karp
// optimum within opts.ExactBelow, else the construction followed by
// Improve's local-search passes.
//
//mdglint:allow-alloc(per-solve setup: construction and neighbour lists allocate once; the improvement passes are scratch-based hot roots)
func Solve(pts []geom.Point, opts Options) Tour {
	n := len(pts)
	if n <= 3 {
		return trivialTour(n)
	}
	if opts.exact(n) {
		if t, err := HeldKarp(pts); err == nil {
			sp := opts.Obs.Child("construct")
			sp.SetStr("method", "held-karp")
			sp.SetInt("n", int64(n))
			//mdglint:ignore unitcheck obs boundary: trace fields carry raw numbers
			sp.SetFloat("len", float64(t.Length(pts)))
			sp.End()
			return t
		}
	}
	sp := opts.Obs.Child("construct")
	// Greedy-edge and both local searches work off the same k-nearest
	// candidate lists; build them once and share them across every stage.
	var nb *Neighbors
	if opts.Construction == ConstructGreedy || opts.TwoOpt || opts.OrOpt {
		nb = NewNeighbors(pts)
	}
	var t Tour
	switch opts.Construction {
	case ConstructNN:
		t = NearestNeighbor(pts, 0)
	case ConstructGreedy:
		t = greedyEdge(pts, nb)
	case ConstructChristofides:
		t = Christofides(pts)
	default:
		//mdglint:ignore nopanic exhaustive switch over a closed enum; a new variant must fail loudly in tests
		panic(fmt.Sprintf("tsp: unknown construction %v", opts.Construction))
	}
	// Length recomputation is O(n); only pay for it when traced.
	if opts.Obs != nil {
		sp.SetStr("method", opts.Construction.name())
		sp.SetInt("n", int64(n))
		//mdglint:ignore unitcheck obs boundary: trace fields carry raw numbers
		sp.SetFloat("len", float64(t.Length(pts)))
	}
	sp.End()
	improve(pts, t, nb, opts, nil)
	return t
}

// Improve returns the order pts are given in, the identity tour,
// improved by the passes Solve runs after its construction: 2-opt,
// Or-opt, then 2-opt again, as opts enables them, and the number of
// moves they made. seeds picks the points every pass starts from, as
// in Scratch.TwoOpt: nil polishes the whole tour, explicit seeds only
// the region around them, and an empty, non-nil list returns the
// identity tour untouched. Otherwise, within opts.ExactBelow, it returns
// the Held–Karp optimum and no moves. Every move shortens the tour, so
// the result is never longer than the identity tour. A planner that
// already holds a tour passes its points in visit order, and Improve
// polishes that tour without building another. nb supplies pts'
// neighbour lists (NeighborsOn's, say); nil indexes pts for them.
//
//mdglint:allow-alloc(per-call setup: the identity tour and neighbour lists allocate once; the improvement passes are scratch-based hot roots)
func Improve(pts []geom.Point, nb *Neighbors, opts Options, seeds []int) (Tour, int) {
	n := len(pts)
	t := trivialTour(n)
	if seeds != nil && len(seeds) == 0 {
		return t, 0
	}
	if opts.exact(n) {
		if hk, err := HeldKarp(pts); err == nil {
			return hk, 0
		}
	}
	moves := 0
	if opts.TwoOpt || opts.OrOpt {
		if nb == nil {
			// An unseeded pass reads every list; a seeded one reads
			// about one per seed unless its moves spread.
			lists := n
			if seeds != nil {
				lists = min(len(seeds), n)
			}
			nb = newNeighbors(pts, lists)
		}
		moves = improve(pts, t, nb, opts, seeds)
	}
	return t, moves
}

// exact reports whether opts solves an n-point tour by Held–Karp.
func (o Options) exact(n int) bool {
	return o.ExactBelow > 0 && n <= o.ExactBelow && n <= HeldKarpMax
}

// improve runs the local-search passes opts enables on t in place, each
// starting from seeds: 2-opt, Or-opt, and one more 2-opt after Or-opt
// when both are on. One scratch serves every pass, so the second 2-opt
// pass reuses the buffers the first one grew. It returns the moves made.
func improve(pts []geom.Point, t Tour, nb *Neighbors, opts Options, seeds []int) int {
	var s Scratch
	twoOpt := func(p []geom.Point, t Tour) int { return s.TwoOpt(p, t, nb, seeds) }
	orOpt := func(p []geom.Point, t Tour) int { return s.OrOpt(p, t, nb, seeds) }
	moves := 0
	if opts.TwoOpt {
		moves += improvePass(pts, t, opts.Obs, "twoopt", "tsp.twoopt_moves", twoOpt)
	}
	if opts.OrOpt {
		moves += improvePass(pts, t, opts.Obs, "oropt", "tsp.oropt_moves", orOpt)
		if opts.TwoOpt {
			// Or-opt moves can open new 2-opt improvements; one more
			// pass is cheap and usually closes them.
			moves += improvePass(pts, t, opts.Obs, "twoopt", "tsp.twoopt_moves", twoOpt)
		}
	}
	return moves
}

// improvePass runs one local-search pass and returns its move count,
// recording — when traced — the pass's span with its move count and the
// tour-length delta it bought, plus a running counter of improvement
// moves per neighbourhood.
func improvePass(pts []geom.Point, t Tour, parent *obs.Span, name, counter string, pass func([]geom.Point, Tour) int) int {
	if parent == nil {
		return pass(pts, t)
	}
	sp := parent.Child(name)
	before := t.Length(pts)
	moves := pass(pts, t)
	after := t.Length(pts)
	sp.SetInt("moves", int64(moves))
	//mdglint:ignore unitcheck obs boundary: trace fields carry raw numbers
	sp.SetFloat("delta", float64(before-after))
	//mdglint:ignore unitcheck obs boundary: trace fields carry raw numbers
	sp.SetFloat("len", float64(after))
	sp.Count(counter, int64(moves))
	sp.End()
	return moves
}
