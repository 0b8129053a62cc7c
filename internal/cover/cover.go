// Package cover solves the geometric covering half of the single-hop data
// gathering problem: choose stop positions ("polling points") so that
// every sensor lies within transmission range of at least one stop.
//
// The package generates candidate stop positions (sensor sites, a uniform
// grid over the field as in the paper's evaluation, and circle–circle
// intersection points), and selects covers with the classic greedy
// max-coverage heuristic (ln n approximation). For exact planning it
// prunes dominated candidates and exposes the covers as bitsets; the
// enumeration of covers lives in shdgp.PlanExact, which tours each one.
package cover

import (
	"fmt"

	"mobicol/internal/bitset"
	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/par"
)

// Instance is a set-cover instance: Cover(c) is the sorted list of sensor
// indices within range of candidate c. Universe is the number of sensors.
//
// Covers are stored sparse (CSR: one offsets slice into one shared index
// slice) because geometric instances are sparse by construction — a
// candidate covers the few sensors within one transmission range, so the
// average cover holds a handful of sensors regardless of n. Dense bitset
// rows would cost Universe bits per candidate (≈1.2 GB at n=100k with
// 100k candidates); CSR costs 4 bytes per covered pair (a few MB). Paths
// that genuinely want set algebra on small instances (exact search, the
// ILP model) materialise a dense view once via CoverSets.
type Instance struct {
	Universe   int
	Candidates []geom.Point

	// CSR cover lists: candidate c covers idx[off[c]:off[c+1]], ascending.
	off []int32
	idx []int32

	// covers is the lazily materialised dense view (CoverSets).
	covers []*bitset.Set

	// The lazily built transpose (Coverers): sensor s is covered by
	// candidates covIdx[covOff[s]:covOff[s+1]], ascending.
	covOff []int32
	covIdx []int32

	// err records an invalid construction (mismatched radii, non-positive
	// range); Err and every solving method surface it.
	err error

	// uncoverable() is pure in the instance; memoize it so the repeated
	// feasibility checks on the planning hot path cost one scan instead
	// of one per call.
	uncovOnce bool
	uncovIdx  int
}

// NumCandidates returns the number of (useful) candidates.
func (in *Instance) NumCandidates() int { return len(in.Candidates) }

// Cover returns the sorted sensor indices covered by candidate c. The
// slice aliases the instance's storage; callers must not mutate it.
//
//mdglint:hotpath
func (in *Instance) Cover(c int) []int32 {
	return in.idx[in.off[c]:in.off[c+1]]
}

// CoverSets materialises (once) and returns the dense bitset view of the
// covers, for small-instance consumers that want set algebra. Large-n
// planning paths must stay on Cover: the dense view is quadratic memory.
//
//mdglint:allow-alloc(dense view is materialised once, on small-instance paths only)
func (in *Instance) CoverSets() []*bitset.Set {
	if in.covers == nil && len(in.Candidates) > 0 {
		in.covers = make([]*bitset.Set, len(in.Candidates))
		for c := range in.covers {
			set := bitset.New(in.Universe)
			for _, s := range in.Cover(c) {
				set.Add(int(s))
			}
			in.covers[c] = set
		}
	}
	return in.covers
}

// Coverers returns the candidates covering sensor s, ascending: the
// transpose of the cover lists, built once on first use. The slice
// aliases the instance's storage; callers must not mutate it.
//
//mdglint:hotpath
func (in *Instance) Coverers(s int) []int32 {
	if in.covOff == nil {
		in.transpose()
	}
	return in.covIdx[in.covOff[s]:in.covOff[s+1]]
}

// transpose builds the Coverers lists as a counting sort over the cover
// lists: two O(pairs) passes, no per-sensor slice headers. Ascending
// candidate order per sensor falls out of the ascending outer loop.
//
//mdglint:allow-alloc(the transpose is built once per instance; later Coverers calls reuse it)
func (in *Instance) transpose() {
	// The offsets are shifted by one: sensor s's count goes to off[s+2],
	// so after the prefix sum off[s+1] is s's start and serves as its
	// write cursor; placing s's coverers advances it to s+1's start,
	// which is where off[s+1] belongs.
	off := make([]int32, in.Universe+2)
	for _, s := range in.idx {
		off[s+2]++
	}
	for s := 1; s <= in.Universe; s++ {
		off[s+1] += off[s]
	}
	idx := make([]int32, len(in.idx))
	for c := 0; c < in.NumCandidates(); c++ {
		for _, s := range in.Cover(c) {
			idx[off[s+1]] = int32(c)
			off[s+1]++
		}
	}
	in.covOff, in.covIdx = off[:in.Universe+1], idx
}

// NewInstance builds the covering instance for the given sensors,
// candidate positions, and transmission range. Candidates that cover no
// sensor are dropped (a stop there could never be useful).
func NewInstance(sensors []geom.Point, candidates []geom.Point, r float64) *Instance {
	return NewInstancePool(sensors, candidates, r, par.Seq())
}

// NewInstancePool is NewInstance with candidate-cover construction spread
// across the given worker pool. Every candidate's cover is computed
// independently and the kept candidates are reduced in input order, so the
// instance is identical for any pool size.
func NewInstancePool(sensors []geom.Point, candidates []geom.Point, r float64, pool par.Pool) *Instance {
	radii := make([]float64, len(sensors))
	for i := range radii {
		radii[i] = r
	}
	return NewInstanceRadiiPool(sensors, radii, candidates, pool)
}

// NewInstanceRadii builds a covering instance with per-sensor
// transmission ranges: candidate c covers sensor s when their distance is
// at most radii[s]. Heterogeneous ranges model mixed hardware or depleted
// amplifiers; the uniform-range instance is the special case of equal
// radii.
func NewInstanceRadii(sensors []geom.Point, radii []float64, candidates []geom.Point) *Instance {
	return NewInstanceRadiiPool(sensors, radii, candidates, par.Seq())
}

// NewInstanceRadiiPool is NewInstanceRadii across a worker pool. It
// builds the instance sensor-major: each sensor queries a grid index over
// the candidates for those within its own range, in sensor chunks spread
// across the pool whose hit runs concatenate in sensor order. Counting
// the hits per candidate numbers the kept candidates in input order and
// sizes their cover lists, and scattering each sensor into its
// candidates' lists in sensor order leaves every list ascending without
// a sort. Neither step depends on how the sensors were chunked, so the
// instance is identical for any pool size.
func NewInstanceRadiiPool(sensors []geom.Point, radii []float64, candidates []geom.Point, pool par.Pool) *Instance {
	if len(radii) != len(sensors) {
		return &Instance{Universe: len(sensors), off: []int32{0},
			err: fmt.Errorf("cover: %d radii for %d sensors", len(radii), len(sensors))}
	}
	maxR := 0.0
	for i, r := range radii {
		if r <= 0 {
			return &Instance{Universe: len(sensors), off: []int32{0},
				err: fmt.Errorf("cover: non-positive radius %v for sensor %d", r, i)}
		}
		if r > maxR {
			maxR = r
		}
	}
	if len(sensors) == 0 {
		return &Instance{off: []int32{0}}
	}
	// Occupancy-aware sizing keeps per-query work flat when the
	// candidates are dense relative to the range; the query results are
	// exact either way.
	cidx := geom.NewGridIndexFor(candidates, maxR)
	n := len(sensors)
	// count[s] is sensor s's hit count; count[n+c] is candidate c's, and
	// then its list's write cursor.
	count := make([]int32, n+len(candidates))
	chunks := min(pool.Size(), n)
	runs := make([][]int32, chunks)
	// Chunk k queries sensors [k·n/chunks, (k+1)·n/chunks) into runs[k]
	// and its slots of count; the grid index is read-only and safe to
	// share. The pool splits the chunk indices, one per worker.
	pool.ForChunks(chunks, func(lo, hi int) {
		//mdglint:allow-alloc(one query buffer per worker, reused across its sensors)
		buf := make([]int, 0, 64)
		for k := lo; k < hi; k++ {
			first, end := k*n/chunks, (k+1)*n/chunks
			// At the paper's density a sensor reaches about 8 sensor
			// sites and 7 grid points; the run grows past that when
			// it must.
			//mdglint:allow-alloc(one hit run per sensor chunk; the scatter below reads it once)
			run := make([]int32, 0, 16*(end-first))
			for s := first; s < end; s++ {
				// Within's inclusive test, a squared distance of at
				// most r²+geom.Eps, is the pair test: sensor s reaches
				// the candidate over its own range.
				buf = cidx.Within(sensors[s], radii[s], buf[:0])
				for _, c := range buf {
					//mdglint:allow-alloc(amortized growth of the chunk's hit run)
					run = append(run, int32(c))
				}
				count[s] = int32(len(buf))
			}
			runs[k] = run
		}
	})
	cand := count[n:]
	for _, run := range runs {
		for _, c := range run {
			cand[c]++
		}
	}
	kept, total := 0, 0
	for _, k := range cand {
		if k > 0 {
			kept++
			total += int(k)
		}
	}
	// The offsets and the cover lists share one allocation.
	csr := make([]int32, kept+1+total)
	inst := &Instance{Universe: n, Candidates: make([]geom.Point, 0, kept),
		off: csr[: kept+1 : kept+1], idx: csr[kept+1:]}
	for c, k := range cand {
		if k > 0 {
			start := inst.off[len(inst.Candidates)]
			inst.Candidates = append(inst.Candidates, candidates[c])
			inst.off[len(inst.Candidates)] = start + k
			cand[c] = start
		}
	}
	for k, run := range runs {
		for s := k * n / chunks; s < (k+1)*n/chunks; s++ {
			for _, c := range run[:count[s]] {
				inst.idx[cand[c]] = int32(s)
				cand[c]++
			}
			run = run[count[s]:]
		}
	}
	return inst
}

// uncoverable returns the first sensor that no candidate covers, or -1.
func (in *Instance) uncoverable() int {
	if !in.uncovOnce {
		in.uncovIdx = in.computeUncoverable()
		in.uncovOnce = true
	}
	return in.uncovIdx
}

// computeUncoverable does the actual union scan. It runs at most once per
// instance via the uncoverable() memo.
//
//mdglint:allow-alloc(feasibility scan runs once per instance; every hot-path call hits the memo)
func (in *Instance) computeUncoverable() int {
	all := bitset.New(in.Universe)
	covered := 0
	for _, s := range in.idx {
		if !all.Has(int(s)) {
			all.Add(int(s))
			covered++
		}
	}
	if covered == in.Universe {
		return -1
	}
	for s := 0; s < in.Universe; s++ {
		if !all.Has(s) {
			return s
		}
	}
	return -1
}

// Err returns nil for valid, feasible instances and a descriptive error
// for invalid constructions or instances where some sensor is uncoverable.
func (in *Instance) Err() error {
	if in.err != nil {
		return in.err
	}
	if s := in.uncoverable(); s >= 0 {
		//mdglint:allow-alloc(infeasible-instance error path; never taken on a planning run that proceeds)
		return fmt.Errorf("cover: sensor %d is outside the range of every candidate", s)
	}
	return nil
}

// Greedy selects candidates by repeatedly taking the one covering the most
// still-uncovered sensors, breaking ties toward the candidate closest to
// tieBreak (the planners pass the sink so that stops gravitate inward,
// which shortens the eventual tour). It returns the chosen candidate
// indices in selection order. Greedy is the classic (1 + ln n)
// approximation for set cover.
func (in *Instance) Greedy(tieBreak geom.Point) ([]int, error) {
	return in.GreedyObs(tieBreak, nil)
}

// GreedyObs is Greedy with observability: when sp is non-nil it records
// the instance size as span fields, each greedy iteration into the
// "cover.greedy_iters" counter, the per-pick coverage gain into the
// "cover.gain" histogram — the distribution the paper's ln n bound is
// about — and the number of lazy-gain recomputations into
// "cover.celf_reevals". A nil span makes it identical to Greedy.
//
// The selection runs as CELF lazy greedy (see celf.go): submodularity of
// coverage gain lets cached gains serve as upper bounds, so each pick
// re-evaluates only the few candidates whose cached gain still tops the
// heap instead of rescanning every candidate. The pick sequence is
// provably identical to the naive full-scan greedy.
func (in *Instance) GreedyObs(tieBreak geom.Point, sp *obs.Span) ([]int, error) {
	var s GreedyScratch
	picks, err := in.GreedyInto(tieBreak, sp, &s)
	if err != nil {
		return nil, err
	}
	// GreedyInto lends the scratch's selection buffer; callers of the
	// public API own their result.
	//mdglint:allow-alloc(result handed to the caller must outlive the scratch)
	return append([]int(nil), picks...), nil
}

// GreedyScratch holds the reusable state of a CELF greedy selection:
// the uncovered set, the lazy-gain heap, and the selection buffer. A
// zero value is ready; reusing one across selections keeps the greedy
// inner loop allocation-free once the buffers have grown.
type GreedyScratch struct {
	uncovered *bitset.Set
	h         celfHeap
	chosen    []int
}

//mdglint:allow-alloc(scratch growth is amortized; steady state reuses the retained buffers)
func (s *GreedyScratch) ensure(universe, candidates int) {
	if s.uncovered == nil || s.uncovered.Len() != universe {
		s.uncovered = bitset.New(universe)
	}
	if cap(s.h) < candidates {
		s.h = make(celfHeap, candidates)
	}
	s.h = s.h[:candidates]
	s.chosen = s.chosen[:0]
}

// GainAgainst counts how many of candidate c's sensors are still in
// uncovered — the CELF re-evaluation kernel. Sparse iteration makes it
// O(|cover|) per call instead of O(universe/64) bitset words.
//
//mdglint:hotpath
func (in *Instance) GainAgainst(c int, uncovered *bitset.Set) int {
	g := 0
	for _, s := range in.Cover(c) {
		if uncovered.Has(int(s)) {
			g++
		}
	}
	return g
}

// GreedyInto is GreedyObs running entirely in the caller's scratch. The
// returned slice aliases the scratch's selection buffer and is only
// valid until the next call with the same scratch.
//
//mdglint:hotpath
func (in *Instance) GreedyInto(tieBreak geom.Point, sp *obs.Span, s *GreedyScratch) ([]int, error) {
	if err := in.Err(); err != nil {
		return nil, err
	}
	sp.SetInt("candidates", int64(len(in.Candidates)))
	sp.SetInt("universe", int64(in.Universe))
	s.ensure(in.Universe, in.NumCandidates())
	uncovered := s.uncovered
	uncovered.Fill()
	remaining := in.Universe

	// Round 0: every candidate's gain against the full universe is just its
	// cover size — no membership scan needed.
	h := s.h
	for c := range in.Candidates {
		h[c] = celfEntry{cand: c, gain: len(in.Cover(c)), dist: in.Candidates[c].Dist2(tieBreak)}
	}
	h.init()

	reevals := int64(0)
	for round := 0; remaining > 0; round++ {
		// Pop until the top entry's gain is fresh for this round. Gains
		// are monotone non-increasing, so stale entries only over-rank;
		// a fresh top is the exact naive argmax.
		for len(h) > 0 && h[0].round != round {
			h[0].gain = in.GainAgainst(h[0].cand, uncovered)
			h[0].round = round
			h.siftDown(0)
			reevals++
		}
		if len(h) == 0 || h[0].gain == 0 {
			// Unreachable given the feasibility pre-check, but guard anyway.
			//mdglint:allow-alloc(defensive error path; unreachable after the feasibility pre-check)
			return nil, fmt.Errorf("cover: greedy stalled with %d sensors uncovered", remaining)
		}
		best := h.popTop()
		//mdglint:allow-alloc(append reuses selection capacity retained in the scratch)
		s.chosen = append(s.chosen, best.cand)
		for _, sv := range in.Cover(best.cand) {
			if uncovered.Has(int(sv)) {
				uncovered.Remove(int(sv))
				remaining--
			}
		}
		sp.Count("cover.greedy_iters", 1)
		sp.Observe("cover.gain", float64(best.gain))
	}
	sp.Count("cover.celf_reevals", reevals)
	sp.SetInt("chosen", int64(len(s.chosen)))
	return s.chosen, nil
}

// Assign maps every sensor to its nearest chosen candidate, returning
// assignment[sensor] = position in chosen. Sensors covered by no chosen
// candidate get -1. The planners use this to decide which stop each sensor
// uploads at.
func (in *Instance) Assign(sensors []geom.Point, chosen []int) []int {
	assignment := make([]int, len(sensors))
	for i := range assignment {
		assignment[i] = -1
	}
	for pos, c := range chosen {
		for _, sv := range in.Cover(c) {
			s := int(sv)
			cur := assignment[s]
			if cur < 0 || sensors[s].Dist2(in.Candidates[chosen[pos]]) < sensors[s].Dist2(in.Candidates[chosen[cur]]) {
				assignment[s] = pos
			}
		}
	}
	return assignment
}

// SubsetOfSorted reports whether every element of a (ascending) is also
// in b (ascending).
func SubsetOfSorted(a, b []int32) bool {
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j >= len(b) || b[j] != v {
			return false
		}
		j++
	}
	return true
}

// Prune removes dominated candidates: candidate a is dominated when some
// candidate b covers a strict superset of a's sensors (or the same set with
// a lower index). Pruning shrinks exact-search instances dramatically on
// dense fields. It returns a new Instance plus a map from new candidate
// index to original index.
func (in *Instance) Prune() (*Instance, []int) {
	n := in.NumCandidates()
	dominated := make([]bool, n)
	for a := 0; a < n; a++ {
		if dominated[a] {
			continue
		}
		ca := in.Cover(a)
		for b := 0; b < n; b++ {
			if a == b || dominated[b] {
				continue
			}
			cb := in.Cover(b)
			if SubsetOfSorted(ca, cb) {
				if len(ca) == len(cb) && a < b {
					continue // keep the earlier of two equals
				}
				dominated[a] = true
				break
			}
		}
	}
	out := &Instance{Universe: in.Universe, err: in.err, off: []int32{0}}
	var orig []int
	for c := 0; c < n; c++ {
		if !dominated[c] {
			out.Candidates = append(out.Candidates, in.Candidates[c])
			out.idx = append(out.idx, in.Cover(c)...)
			out.off = append(out.off, int32(len(out.idx)))
			orig = append(orig, c)
		}
	}
	return out, orig
}
