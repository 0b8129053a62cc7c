package tsp

import "mobicol/internal/geom"

// neighborK is the candidate-list width shared by the local searches.
// 10–16 captures almost all improving 2-opt/Or-opt moves on Euclidean
// instances; 12 matches the classic Lin–Kernighan setting.
const neighborK = 12

// Neighbors holds the k-nearest candidate lists of a point set (k =
// neighborK, or every other point when there are fewer), each sorted by
// ascending distance with ties toward the lower index, so the lists are
// independent of construction path, plus the grid index they come from.
// Greedy-edge takes its candidate edges from the lists and links
// leftover fragments through the grid; local search restricted to near
// neighbours finds almost all the improving moves of the full quadratic
// scan at a fraction of the cost.
//
// A list is computed the first time it is read: one
// geom.GridIndex.NearestK ring search over an occupancy-sized grid,
// expected O(k) work per point at any n, written into one shared n·k
// backing array. Solve's greedy-edge construction reads every list; the
// seeded passes of warm repair read only the lists of the points they
// examine. The search is exact however the grid is sized, and a list
// does not depend on when it is read, so neither changes a tour. A
// Neighbors must not be shared between concurrent passes.
type Neighbors struct {
	pts    []geom.Point
	idx    *geom.GridIndex
	k      int
	flat   []int  // list i is flat[i*k : (i+1)*k]
	filled []bool // filled[i]: list i is computed
	d2     [neighborK]float64
}

// NewNeighbors indexes pts for their k-nearest lists; no list is
// computed until it is read.
func NewNeighbors(pts []geom.Point) *Neighbors {
	n := len(pts)
	k := max(min(neighborK, n-1), 0)
	return &Neighbors{
		pts:    pts,
		idx:    geom.NewGridIndexAuto(pts, 1),
		k:      k,
		flat:   make([]int, n*k),
		filled: make([]bool, n),
	}
}

// List returns point i's neighbour list, computing it on first read. The
// slice aliases the shared backing array and must not be modified.
//
//mdglint:hotpath
func (nb *Neighbors) List(i int) []int {
	list := nb.flat[i*nb.k : (i+1)*nb.k : (i+1)*nb.k]
	if !nb.filled[i] {
		nb.idx.NearestK(nb.pts[i], i, list, nb.d2[:nb.k])
		nb.filled[i] = true
	}
	return list
}

// Scratch holds the reusable working state of the local-search passes.
// The zero value is ready to use; buffers grow to the largest instance
// seen and are retained, so repeated passes touch the allocator only on
// first use. Solve and Improve thread one Scratch through all of their
// passes, and a caller running many passes (the steady-state
// benchmarks) can hold its own across calls. A Scratch must not be
// shared between concurrent passes.
type Scratch struct {
	pos      []int  // point -> position in tour
	dontLook []bool // don't-look bits
	queue    []int  // work queue of points to (re-)examine
	reloc    Tour   // relocation splice buffer for wrapping segments
	// priced[j] == stamp: Or-opt has priced the insertion into the tour
	// edge after position j for the current anchor and segment length.
	// stamp only grows, and every entry is cleared when it wraps, so a
	// stale entry never matches.
	priced []uint32
	stamp  uint32
}

// ensure sizes the buffers for an n-stop tour and resets per-pass state.
//
//mdglint:allow-alloc(scratch growth is amortized; steady state reuses the retained buffers)
func (s *Scratch) ensure(n int) {
	if cap(s.pos) < n {
		s.pos = make([]int, n)
		s.dontLook = make([]bool, n)
		s.reloc = make(Tour, 0, n)
		s.priced = make([]uint32, n)
	}
	if cap(s.queue) < n {
		s.queue = make([]int, 0, n)
	}
	s.pos = s.pos[:n]
	s.dontLook = s.dontLook[:n]
	for i := range s.dontLook {
		s.dontLook[i] = false
	}
	s.queue = s.queue[:0]
}

// seedQueue initialises the work queue: nil seeds enqueue the whole tour
// with every don't-look bit clear (the full pass); explicit seeds enqueue
// only themselves, with every other point parked behind a set bit until a
// move wakes it.
//
//mdglint:hotpath
func (s *Scratch) seedQueue(tour Tour, seeds []int) {
	if seeds == nil {
		//mdglint:allow-alloc(append reuses queue capacity retained in the scratch)
		s.queue = append(s.queue, tour...)
		return
	}
	for i := range s.dontLook {
		s.dontLook[i] = true
	}
	for _, v := range seeds {
		if s.dontLook[v] {
			s.dontLook[v] = false
			//mdglint:allow-alloc(append reuses queue capacity retained in the scratch)
			s.queue = append(s.queue, v)
		}
	}
}

// TwoOpt is 2-opt over caller-supplied neighbour lists and caller-owned
// scratch state: the steady-state pass allocates nothing once the
// buffers have grown to the instance size. seeds picks the points the
// pass starts from: nil examines the whole tour, and explicit seeds
// examine only themselves and the points later touched by improving
// moves, so the pass cost scales with the size of the disturbed region
// rather than the tour. An empty, non-nil list makes no move.
//
//mdglint:hotpath
func (s *Scratch) TwoOpt(pts []geom.Point, tour Tour, nb *Neighbors, seeds []int) int {
	n := len(tour)
	if n < 4 {
		return 0
	}
	s.ensure(n)
	pos, dontLook := s.pos, s.dontLook
	for i, v := range tour {
		pos[v] = i
	}
	s.seedQueue(tour, seeds)
	head := 0
	moves := 0
	d := func(a, b int) float64 { return pts[a].Dist(pts[b]) }
	succ := func(i int) int { return tour[(pos[i]+1)%n] }
	pred := func(i int) int { return tour[(pos[i]-1+n)%n] }

	reverse := func(i, j int) {
		// Reverse tour positions i..j (inclusive, i<j).
		for i < j {
			tour[i], tour[j] = tour[j], tour[i]
			pos[tour[i]], pos[tour[j]] = i, j
			i++
			j--
		}
	}

	improveAt := func(a int) bool {
		// Try 2-opt moves removing edge (a, succ(a)) or (pred(a), a).
		for _, dir := range [2]bool{true, false} {
			var b int
			if dir {
				b = succ(a)
			} else {
				b = pred(a)
			}
			dab := d(a, b)
			for _, c := range nb.List(a) {
				dac := d(a, c)
				if dac >= dab {
					break // neighbours sorted: no closer candidate remains
				}
				var e int
				if dir {
					e = succ(c)
				} else {
					e = pred(c)
				}
				if c == a || c == b || e == a {
					continue
				}
				// Replace edges (a,b) and (c,e) with (a,c) and (b,e).
				if dab+d(c, e) > dac+d(b, e)+1e-12 {
					// A 2-opt move reverses one of the two arcs between
					// the removed edges; pick the one that does not wrap
					// around the array boundary. In the successor
					// direction the removed edges are (a→b) and (c→e);
					// in the predecessor direction, (b→a) and (e→c).
					var i, j int
					if dir {
						if pos[b] <= pos[c] {
							i, j = pos[b], pos[c]
						} else {
							i, j = pos[e], pos[a]
						}
					} else {
						if pos[a] <= pos[e] {
							i, j = pos[a], pos[e]
						} else {
							i, j = pos[c], pos[b]
						}
					}
					if i >= j {
						continue // degenerate: would be a no-op, not a gain
					}
					reverse(i, j)
					for _, v := range [4]int{a, b, c, e} {
						if dontLook[v] {
							dontLook[v] = false
							//mdglint:allow-alloc(append reuses queue capacity retained in the scratch)
							s.queue = append(s.queue, v)
						}
					}
					moves++
					return true
				}
			}
		}
		return false
	}

	for head < len(s.queue) {
		a := s.queue[head]
		head++
		if dontLook[a] {
			continue
		}
		if improveAt(a) {
			//mdglint:allow-alloc(append reuses queue capacity retained in the scratch)
			s.queue = append(s.queue, a)
		} else {
			dontLook[a] = true
		}
	}
	return moves
}

// OrOpt is Or-opt restricted to candidate insertion points near the
// segment endpoints, with don't-look bits: each point anchors segment
// relocations, and points are re-examined only when a move touches them.
// A good insertion splices the segment between stops a and b where a is
// near the new head or b is near the new tail, so trying the tour edges on
// both sides of each near neighbour of s0 and s1 covers (for either
// orientation) the insertions the full scan would find. seeds picks the
// anchors the pass starts from, as in TwoOpt: nil is the whole tour and
// an empty, non-nil list makes no move. It returns the number of
// improving moves applied, and allocates nothing in steady state once
// the caller-owned buffers have grown to the instance size.
//
// Each insertion is priced once per anchor and segment length, in the
// order the edges come from s0's list and then s1's: an edge reached
// again through another neighbour is skipped, since the tour has not
// changed since it was priced and found not improving. At length 1 the
// tail is the head, so its list is scanned once and the two orientations
// cost the same. The distances from s0 to the ends of the edges its own
// list names, and their lengths, do not depend on the segment length and
// are computed once per anchor. The first improving insertion, and so
// every move and every tour, is the one the full double scan finds.
//
//mdglint:hotpath
func (s *Scratch) OrOpt(pts []geom.Point, tour Tour, nb *Neighbors, seeds []int) int {
	n := len(tour)
	if n < 5 {
		return 0
	}
	s.ensure(n)
	d := func(a, b int) float64 { return pts[a].Dist(pts[b]) }
	pos, dontLook, priced := s.pos, s.dontLook, s.priced
	for i, v := range tour {
		pos[v] = i
	}
	s.seedQueue(tour, seeds)
	head := 0
	moves := 0
	maxSeg := min(3, n-3)

	improveAt := func(s0 int) bool {
		i := pos[s0]
		p0 := tour[n-1]
		if i > 0 {
			p0 = tour[i-1]
		}
		dp0s0 := d(p0, s0)
		near := nb.List(s0)
		// cost[2k+side] holds d(a,s0), d(s0,b) and d(a,b) for the edge
		// (a,b) after (side 0) or before (side 1) near[k], once known.
		var known [2 * neighborK]bool
		var cost [2 * neighborK][3]float64
		for segLen := 1; segLen <= maxSeg; segLen++ {
			e := i + segLen - 1
			if e >= n {
				e -= n
			}
			s1 := tour[e]
			if e++; e == n {
				e = 0
			}
			p1 := tour[e]
			removed := dp0s0 + d(s1, p1) - d(p0, p1)
			if removed <= 1e-12 {
				continue
			}
			if s.stamp++; s.stamp == 0 {
				clear(s.priced[:cap(s.priced)])
				s.stamp = 1
			}
			lists := [2][]int{near}
			if segLen > 1 {
				lists[1] = nb.List(s1)
			}
			for l, list := range lists {
				for k, c := range list {
					// Anchor on the tour edge after c and the one before
					// it, so c can serve as either endpoint of the broken
					// edge.
					before := pos[c] - 1
					if before < 0 {
						before = n - 1
					}
					for side, j := range [2]int{pos[c], before} {
						if priced[j] == s.stamp {
							continue
						}
						priced[j] = s.stamp
						// Skip an edge inside the segment or just
						// before it.
						off := j - i
						if off < 0 {
							off += n
						}
						if off < segLen || off == n-1 {
							continue
						}
						jb := j + 1
						if jb == n {
							jb = 0
						}
						a, b := tour[j], tour[jb]
						var as0, s0b, ab float64
						if x := 2*k + side; l == 0 && known[x] {
							as0, s0b, ab = cost[x][0], cost[x][1], cost[x][2]
						} else {
							as0, s0b, ab = d(a, s0), d(s0, b), d(a, b)
							if l == 0 {
								cost[x], known[x] = [3]float64{as0, s0b, ab}, true
							}
						}
						added, rev := as0+s0b-ab, false
						if segLen > 1 {
							forward := as0 + d(s1, b) - ab
							backward := d(a, s1) + s0b - ab
							rev = backward < forward
							added = forward
							if rev {
								added = backward
							}
						}
						if added < removed-1e-12 {
							relocate(tour, pos, i, segLen, j, rev, s.reloc)
							for _, v := range [6]int{p0, p1, s0, s1, a, b} {
								if dontLook[v] {
									dontLook[v] = false
									//mdglint:allow-alloc(append reuses queue capacity retained in the scratch)
									s.queue = append(s.queue, v)
								}
							}
							moves++
							return true
						}
					}
				}
			}
		}
		return false
	}

	for head < len(s.queue) {
		s0 := s.queue[head]
		head++
		if dontLook[s0] {
			continue
		}
		if improveAt(s0) {
			//mdglint:allow-alloc(append reuses queue capacity retained in the scratch)
			s.queue = append(s.queue, s0)
		} else {
			dontLook[s0] = true
		}
	}
	return moves
}

// within reports whether tour position j lies inside the segment starting
// at position i with the given length (mod n).
func within(i, segLen, j, n int) bool {
	for k := 0; k < segLen; k++ {
		if (i+k)%n == j {
			return true
		}
	}
	return false
}

// relocate moves the segment of segLen stops (at most 3) starting at
// position i to just after position j, optionally reversing it, and
// refreshes pos for every position it rewrites. The result is
// relocateByValue's array, element for element, so the passes see the
// same positions either way. A segment that does not wrap the array end
// moves in place: only the stops between the segment and the anchor
// shift, by segLen, and only their positions are refreshed. A wrapping
// segment takes the by-value path and a full refresh. buf is the splice
// buffer relocateByValue needs.
func relocate(tour Tour, pos []int, i, segLen, j int, rev bool, buf Tour) {
	if i+segLen > len(tour) {
		relocateByValue(tour, i, segLen, j, rev, buf)
		for k, v := range tour {
			pos[v] = k
		}
		return
	}
	var seg [3]int
	copy(seg[:segLen], tour[i:i+segLen])
	if rev {
		for a, b := 0, segLen-1; a < b; a, b = a+1, b-1 {
			seg[a], seg[b] = seg[b], seg[a]
		}
	}
	lo, hi := j+1, i+segLen-1
	if j > i {
		// The anchor follows the segment: tour[i+segLen..j] shifts back.
		copy(tour[i:], tour[i+segLen:j+1])
		copy(tour[j-segLen+1:], seg[:segLen])
		lo, hi = i, j
	} else {
		// The anchor precedes the segment: tour[j+1..i-1] shifts forward.
		copy(tour[j+1+segLen:], tour[j+1:i])
		copy(tour[j+1:], seg[:segLen])
	}
	for k := lo; k <= hi; k++ {
		pos[tour[k]] = k
	}
}

// relocateByValue is relocate without pos: it rebuilds the tour by
// value, removing the segment and splicing it back in after the stop that
// was at position j. buf is a caller-owned splice buffer with capacity >=
// len(tour); relocateByValue never retains it.
func relocateByValue(tour Tour, i, segLen, j int, rev bool, buf Tour) {
	var seg [3]int
	for k := 0; k < segLen; k++ {
		seg[k] = tour[(i+k)%len(tour)]
	}
	if rev {
		for a, b := 0, segLen-1; a < b; a, b = a+1, b-1 {
			seg[a], seg[b] = seg[b], seg[a]
		}
	}
	anchor := tour[j]
	out := buf[:0]
	for _, v := range tour {
		if v == seg[0] || (segLen > 1 && v == seg[1]) || (segLen > 2 && v == seg[2]) {
			continue
		}
		//mdglint:allow-alloc(append writes within buf's reserved capacity; relocate emits exactly len(tour) values)
		out = append(out, v)
		if v == anchor {
			//mdglint:allow-alloc(append writes within buf's reserved capacity; relocate emits exactly len(tour) values)
			out = append(out, seg[:segLen]...)
		}
	}
	copy(tour, out)
}
