package tsp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"mobicol/internal/geom"
	"mobicol/internal/rng"
)

// sortedNeighbors is the exact quadratic construction of one point's
// k-nearest list, the oracle Neighbors is held to.
func sortedNeighbors(pts []geom.Point, i, k int) []int {
	cand := make([]int, 0, len(pts)-1)
	for j := range pts {
		if j != i {
			cand = append(cand, j)
		}
	}
	sortByDist(pts, i, cand)
	return cand[:k:k]
}

// sortByDist orders cand by ascending squared distance to pts[i], ties
// toward the lower index so the order is total and path-independent.
func sortByDist(pts []geom.Point, i int, cand []int) {
	sort.Slice(cand, func(a, b int) bool {
		da, db := pts[cand[a]].Dist2(pts[i]), pts[cand[b]].Dist2(pts[i])
		if da < db {
			return true
		}
		if db < da {
			return false
		}
		return cand[a] < cand[b]
	})
}

type neighborFamily struct {
	name string
	pts  []geom.Point
}

// neighborFamilies returns the point sets the neighbour lists are pinned
// on: uniform fields at several sizes, an integer lattice with
// duplicates (distance ties, points on cell borders), clusters, a line,
// one coincident spot, and a 100 m field 1e17 m up.
func neighborFamilies(s *rng.Source) []neighborFamily {
	var fams []neighborFamily
	for _, n := range []int{2, 5, 13, 30, 200} {
		fams = append(fams, neighborFamily{fmt.Sprintf("uniform-%d", n), randPts(s, n, 300)})
	}
	lattice := make([]geom.Point, 300)
	for i := range lattice {
		lattice[i] = geom.Pt(float64(s.Intn(12)), float64(s.Intn(12)))
	}
	var clustered []geom.Point
	for c := 0; c < 6; c++ {
		cx, cy := s.Uniform(0, 2000), s.Uniform(0, 2000)
		for i := 0; i < 50; i++ {
			clustered = append(clustered, geom.Pt(cx+s.Uniform(-3, 3), cy+s.Uniform(-3, 3)))
		}
	}
	line := make([]geom.Point, 100)
	for i := range line {
		line[i] = geom.Pt(s.Uniform(0, 500), 7)
	}
	far := make([]geom.Point, 80)
	for i := range far {
		far[i] = geom.Pt(s.Uniform(0, 100), 1e17+s.Uniform(0, 100))
	}
	return append(fams,
		neighborFamily{"lattice", lattice}, neighborFamily{"clustered", clustered},
		neighborFamily{"collinear", line}, neighborFamily{"offset-1e17", far},
		// Uniform(0,0) puts every point at the origin.
		neighborFamily{"coincident", randPts(s, 6, 0)})
}

// eagerLists reads every list of nb in index order: the eager build
// the lists filled on first read are held to.
func eagerLists(nb *Neighbors) [][]int {
	lists := make([][]int, len(nb.pts))
	for i := range lists {
		lists[i] = nb.List(i)
	}
	return lists
}

// TestNeighborListsMatchFullSort pins the grid-backed construction to the
// quadratic oracle: same neighbours, same order, for every point of
// every family, with neighborK below n-1 and (on the smallest families)
// at or past it. The lists are read in a shuffled order, so each is
// filled between unrelated others, into storage reserved for one list,
// so the backing array moves many times: every list handed out, and
// every list read again, must still hold its neighbours after the last
// first read.
func TestNeighborListsMatchFullSort(t *testing.T) {
	for seed := uint64(5); seed < 8; seed++ {
		s := rng.New(seed)
		for _, fam := range neighborFamilies(s) {
			pts := fam.pts
			nb := newNeighbors(pts, 1)
			held := make([][]int, len(pts))
			for _, i := range s.Perm(len(pts)) {
				want := sortedNeighbors(pts, i, min(neighborK, len(pts)-1))
				if held[i] = nb.List(i); !slices.Equal(held[i], want) {
					t.Fatalf("%s seed=%d point %d: %v, want %v", fam.name, seed, i, held[i], want)
				}
			}
			for i, got := range held {
				want := sortedNeighbors(pts, i, min(neighborK, len(pts)-1))
				if again := nb.List(i); !slices.Equal(got, want) || !slices.Equal(again, want) {
					t.Fatalf("%s seed=%d point %d: list changed to %v (read again: %v) after later reads, want %v", fam.name, seed, i, got, again, want)
				}
			}
		}
	}
}

// splitForShared splits pts as warm repair does for NeighborsOn: point
// 0 (the sink) and each other point with probability 1-keep stay with
// NeighborsOn's own grid; the rest go, in ascending order, into a base
// set interleaved with points pts does not hold (ejected stops), some
// random in pts' bounding box and some on one of pts' points. It
// returns the base points and at.
func splitForShared(s *rng.Source, pts []geom.Point, keep float64) ([]geom.Point, []int32) {
	b := geom.Bound(pts)
	var base []geom.Point
	var at []int32
	eject := func() {
		for s.Uniform(0, 1) < 0.2 {
			p := pts[s.Intn(len(pts))]
			if s.Uniform(0, 1) < 0.5 {
				p = geom.Pt(s.Uniform(b.Min.X, b.Max.X), s.Uniform(b.Min.Y, b.Max.Y))
			}
			base, at = append(base, p), append(at, -1)
		}
	}
	for i := range pts {
		eject()
		if i > 0 && s.Uniform(0, 1) < keep {
			base, at = append(base, pts[i]), append(at, int32(i))
		}
	}
	eject()
	return base, at
}

// TestNeighborsOnMatchFullSort holds NeighborsOn's lists, computed
// through a grid over other points, to the quadratic oracle on every
// neighbour family, with none, most or all of the points but the first
// in that grid, ejected points among them, under three cell sizes, read
// in a shuffled order into storage reserved for one list, and read
// again after the last first read.
func TestNeighborsOnMatchFullSort(t *testing.T) {
	for seed := uint64(5); seed < 8; seed++ {
		s := rng.New(seed)
		for _, fam := range neighborFamilies(s) {
			pts := fam.pts
			want := make([][]int, len(pts))
			for i := range want {
				want[i] = sortedNeighbors(pts, i, min(neighborK, len(pts)-1))
			}
			for _, keep := range []float64{0, 0.8, 1} {
				base, at := splitForShared(s, pts, keep)
				for gi, idx := range []*geom.GridIndex{geom.NewGridIndexAuto(base, 1), geom.NewGridIndexFor(base, 30), geom.NewGridIndex(base, 1000)} {
					what := fmt.Sprintf("%s seed=%d keep=%v index %d", fam.name, seed, keep, gi)
					nb := NeighborsOn(pts, idx, at, 1)
					held := make([][]int, len(pts))
					for _, i := range s.Perm(len(pts)) {
						if held[i] = nb.List(i); !slices.Equal(held[i], want[i]) {
							t.Fatalf("%s point %d: %v, want %v", what, i, held[i], want[i])
						}
					}
					for i, got := range held {
						if again := nb.List(i); !slices.Equal(got, want[i]) || !slices.Equal(again, want[i]) {
							t.Fatalf("%s point %d: list changed to %v (read again: %v) after later reads", what, i, got, again)
						}
					}
				}
			}
		}
	}
}

// TestLazyNeighborsMatchEager: seeded passes over lists filled on first
// read make the same moves as over lists built up front, store only the
// lists of the points they examine, and leave every stored list equal
// to its eager build.
func TestLazyNeighborsMatchEager(t *testing.T) {
	for seed := uint64(30); seed < 34; seed++ {
		pts := randPts(rng.New(seed), 3000, 3000)
		base := GreedyEdge(pts)
		// Disturb one stretch of the tour, as a splice does.
		slices.Reverse(base[100:108])
		seeds := slices.Clone(base[98:110])

		eager := NewNeighbors(pts)
		want := eagerLists(eager)
		lazy := newNeighbors(pts, len(seeds))
		a, b := slices.Clone(base), slices.Clone(base)
		var s1, s2 Scratch
		m1 := s1.TwoOpt(pts, a, eager, seeds) + s1.OrOpt(pts, a, eager, seeds)
		m2 := s2.TwoOpt(pts, b, lazy, seeds) + s2.OrOpt(pts, b, lazy, seeds)
		if m1 != m2 || !slices.Equal(a, b) {
			t.Fatalf("seed %d: lazy lists diverged from eager ones (%d vs %d moves)", seed, m2, m1)
		}
		if m1 == 0 {
			t.Fatalf("seed %d: the disturbed stretch drew no move", seed)
		}
		stored := 0
		for i, end := range lazy.slot {
			if end == 0 {
				continue
			}
			stored++
			if got := lazy.flat[int(end)-lazy.k : end]; !slices.Equal(got, want[i]) {
				t.Fatalf("seed %d point %d: lazily filled %v, eager %v", seed, i, got, want[i])
			}
		}
		if stored == 0 || stored > len(pts)/10 {
			t.Fatalf("seed %d: seeded passes filled %d of %d lists", seed, stored, len(pts))
		}
		if len(lazy.flat) != stored*lazy.k {
			t.Fatalf("seed %d: %d stored neighbours for %d lists of %d", seed, len(lazy.flat), stored, lazy.k)
		}
	}
}

// TestCandidateEdgesOncePerPair pins greedy-edge's candidate set to its
// reference: every pair some k-nearest list names, normalised to u < v
// and deduplicated, in ascending (w, u, v) order by cmp.Compare.
func TestCandidateEdgesOncePerPair(t *testing.T) {
	for _, fam := range neighborFamilies(rng.New(9)) {
		pts := fam.pts
		neigh := eagerLists(NewNeighbors(pts))
		seen := map[[2]int]bool{}
		var want []edge
		for u, list := range neigh {
			for _, v := range list {
				a, b := min(u, v), max(u, v)
				if !seen[[2]int{a, b}] {
					seen[[2]int{a, b}] = true
					want = append(want, edge{int32(a), int32(b), pts[a].Dist2(pts[b])})
				}
			}
		}
		slices.SortFunc(want, func(x, y edge) int {
			if c := cmp.Compare(x.w, y.w); c != 0 {
				return c
			}
			if c := cmp.Compare(x.u, y.u); c != 0 {
				return c
			}
			return cmp.Compare(x.v, y.v)
		})
		if got := candidateEdges(pts, NewNeighbors(pts)); !slices.Equal(got, want) {
			t.Fatalf("%s: %d candidate edges, want the %d distinct list pairs in (w, u, v) order", fam.name, len(got), len(want))
		}
	}
}

// TestNeighborListsCoincidentPoints checks degenerate geometry: every
// point at the same location, one grid cell, still yields full lists.
func TestNeighborListsCoincidentPoints(t *testing.T) {
	pts := randPts(rng.New(1), 6, 0) // Uniform(0,0) puts every point at the origin
	for i, l := range eagerLists(NewNeighbors(pts)) {
		if len(l) != 5 {
			t.Fatalf("point %d: %d neighbours, want 5", i, len(l))
		}
		for _, j := range l {
			if j == i {
				t.Fatalf("point %d lists itself", i)
			}
		}
	}
}

// TestOrOptNeighborsNeverLengthens guards the neighbour-restricted
// Or-opt pass: it must only ever shorten the tour and leave it a
// permutation.
func TestOrOptNeighborsNeverLengthens(t *testing.T) {
	for seed := uint64(60); seed < 66; seed++ {
		pts := randPts(rng.New(seed), 90, 200)
		tour := NearestNeighbor(pts, 0)
		before := tour.Length(pts)
		var s Scratch
		moves := s.OrOpt(pts, tour, NewNeighbors(pts), nil)
		after := tour.Length(pts)
		if err := tour.Validate(len(pts)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if after > before+1e-9 {
			t.Fatalf("seed %d: lengthened %.4f -> %.4f", seed, before, after)
		}
		if moves > 0 && !(after < before) {
			t.Fatalf("seed %d: %d moves claimed but no improvement", seed, moves)
		}
	}
}

func BenchmarkSolve(b *testing.B) {
	for _, n := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := randPts(rng.New(1), n, 200*math.Sqrt(float64(n)/100))
			opts := DefaultOptions()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Solve(pts, opts)
			}
		})
	}
}

// checkRelocate runs relocate and relocateByValue on copies of tour and
// fails unless the arrays match and relocate left pos the inverse of
// its array. Both paths must move the segment, so callers pass only
// moves Or-opt makes: j outside the segment and not just before it.
func checkRelocate(t *testing.T, tour Tour, i, segLen, j int, rev bool) {
	t.Helper()
	n := len(tour)
	got, want := slices.Clone(tour), slices.Clone(tour)
	pos := make([]int, n)
	for k, v := range got {
		pos[v] = k
	}
	relocate(got, pos, i, segLen, j, rev, make(Tour, 0, n))
	relocateByValue(want, i, segLen, j, rev, make(Tour, 0, n))
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d i=%d len=%d j=%d rev=%v: in place %v, by value %v", n, i, segLen, j, rev, got, want)
	}
	for k, v := range got {
		if pos[v] != k {
			t.Fatalf("n=%d i=%d len=%d j=%d rev=%v: pos[%d] = %d, stop is at %d", n, i, segLen, j, rev, v, pos[v], k)
		}
	}
}

// TestRelocateInPlaceMatchesByValue pins the in-place Or-opt move to the
// by-value splice on every move of small tours: segment lengths 1-3 in
// both orientations, the anchor before and after the segment and at
// positions 0 and n-1, segments ending at the array end, and wrapping
// segments, which take the by-value path.
func TestRelocateInPlaceMatchesByValue(t *testing.T) {
	s := rng.New(4)
	for _, n := range []int{5, 6, 9, 12} {
		for i := 0; i < n; i++ {
			for segLen := 1; segLen <= min(3, n-3); segLen++ {
				for j := 0; j < n; j++ {
					if within(i, segLen, j, n) || (j+1)%n == i {
						continue
					}
					for _, rev := range []bool{false, true} {
						checkRelocate(t, Tour(s.Perm(n)), i, segLen, j, rev)
					}
				}
			}
		}
	}
}

// FuzzRelocate holds the in-place Or-opt move to the by-value splice on
// decoded moves: bytes 0-4 pick the tour size (5-68), the segment start,
// length and orientation and the anchor; the rest shuffle the tour.
func FuzzRelocate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := 5 + int(data[0])%64
		i := int(data[1]) % n
		segLen := 1 + int(data[2])%min(3, n-3)
		j := int(data[3]) % n
		rev := data[4]&1 == 1
		if within(i, segLen, j, n) || (j+1)%n == i {
			return
		}
		tour := trivialTour(n)
		for k, b := range data[5:] {
			a := k % n
			c := int(b) % n
			tour[a], tour[c] = tour[c], tour[a]
		}
		checkRelocate(t, tour, i, segLen, j, rev)
	})
}

// orOptRef is the Or-opt pass the once-priced scan replaced, kept as its
// oracle: for every segment length it scans s0's list and then s1's
// (the same list at length 1), prices both tour edges beside each
// neighbour in both orientations, and applies the first improving
// insertion.
func orOptRef(pts []geom.Point, tour Tour, nb *Neighbors, seeds []int) int {
	n := len(tour)
	if n < 5 {
		return 0
	}
	var s Scratch
	s.ensure(n)
	d := func(a, b int) float64 { return pts[a].Dist(pts[b]) }
	pos, dontLook := s.pos, s.dontLook
	for i, v := range tour {
		pos[v] = i
	}
	s.seedQueue(tour, seeds)
	moves := 0
	maxSeg := min(3, n-3)
	improveAt := func(s0 int) bool {
		i := pos[s0]
		for segLen := 1; segLen <= maxSeg; segLen++ {
			p0 := tour[(i-1+n)%n]
			s1 := tour[(i+segLen-1)%n]
			p1 := tour[(i+segLen)%n]
			removed := d(p0, s0) + d(s1, p1) - d(p0, p1)
			if removed <= 1e-12 {
				continue
			}
			for _, list := range [2][]int{nb.List(s0), nb.List(s1)} {
				for _, c := range list {
					for _, j := range [2]int{pos[c], (pos[c] - 1 + n) % n} {
						if within(i, segLen, j, n) || (j+1)%n == i {
							continue
						}
						a, b := tour[j], tour[(j+1)%n]
						forward := d(a, s0) + d(s1, b) - d(a, b)
						backward := d(a, s1) + d(s0, b) - d(a, b)
						rev := backward < forward
						added := forward
						if rev {
							added = backward
						}
						if added < removed-1e-12 {
							relocate(tour, pos, i, segLen, j, rev, s.reloc)
							for _, v := range [6]int{p0, p1, s0, s1, a, b} {
								if dontLook[v] {
									dontLook[v] = false
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
	for head := 0; head < len(s.queue); head++ {
		if s0 := s.queue[head]; !dontLook[s0] {
			if improveAt(s0) {
				s.queue = append(s.queue, s0)
			} else {
				dontLook[s0] = true
			}
		}
	}
	return moves
}

// checkOrOpt runs OrOpt in s and orOptRef on copies of tour from seeds
// and fails unless both make the same moves to the same tour. It
// returns the move count.
func checkOrOpt(t *testing.T, name string, s *Scratch, pts []geom.Point, tour Tour, seeds []int) int {
	t.Helper()
	got, want := slices.Clone(tour), slices.Clone(tour)
	m := s.OrOpt(pts, got, NewNeighbors(pts), seeds)
	wm := orOptRef(pts, want, NewNeighbors(pts), seeds)
	if m != wm || !slices.Equal(got, want) {
		t.Fatalf("%s: %d moves to %v, reference %d moves to %v", name, m, got, wm, want)
	}
	return m
}

// orOptFamilies returns n-point sets of the shapes Or-opt is pinned on:
// uniform, clustered, an integer lattice with duplicates (equal costs),
// one coincident spot, a line, and a uniform field 1e6 m out.
func orOptFamilies(s *rng.Source, n int) []neighborFamily {
	lattice := make([]geom.Point, n)
	clustered := make([]geom.Point, n)
	line := make([]geom.Point, n)
	far := make([]geom.Point, n)
	for i := range lattice {
		lattice[i] = geom.Pt(float64(s.Intn(6)), float64(s.Intn(6)))
		if i%25 == 0 {
			clustered[i] = geom.Pt(s.Uniform(0, 2000), s.Uniform(0, 2000))
		} else {
			c := clustered[i-i%25]
			clustered[i] = geom.Pt(c.X+s.Uniform(-3, 3), c.Y+s.Uniform(-3, 3))
		}
		line[i] = geom.Pt(s.Uniform(0, 500), 7)
		far[i] = geom.Pt(1e6+s.Uniform(0, 300), 1e6+s.Uniform(0, 300))
	}
	return []neighborFamily{
		{"uniform", randPts(s, n, 300)}, {"clustered", clustered}, {"lattice", lattice},
		{"coincident", randPts(s, n, 0)}, {"collinear", line}, {"offset-1e6", far},
	}
}

// TestOrOptMatchesReference pins the once-priced Or-opt to orOptRef:
// the same moves and the same final tour on every family at n from 5
// to 3000, from a random order and from a greedy-edge tour, over the
// whole tour, from no seeds, and from seeds at both array ends, so
// segments wrap it. One scratch serves every case, so stamps carry over
// between passes and tours of other sizes, and one case starts with the
// stamp about to wrap.
func TestOrOptMatchesReference(t *testing.T) {
	s := rng.New(71)
	var sc Scratch
	moved := 0
	for _, n := range []int{5, 6, 7, 13, 200, 3000} {
		for _, fam := range orOptFamilies(s, n) {
			for _, start := range []string{"random", "greedy"} {
				tour := Tour(s.Perm(n))
				if start == "greedy" {
					tour = GreedyEdge(fam.pts)
				}
				ends := []int{tour[n-1], tour[n-2], tour[0], tour[n/2]}
				for _, seeds := range [][]int{nil, {}, ends} {
					name := fmt.Sprintf("n=%d/%s/%s/seeds=%v", n, fam.name, start, seeds)
					moved += checkOrOpt(t, name, &sc, fam.pts, tour, seeds)
				}
			}
		}
	}
	if moved == 0 {
		t.Fatal("no case made a move")
	}
	sc.stamp = math.MaxUint32 - 1
	pts := randPts(s, 200, 300)
	if checkOrOpt(t, "stamp wrap", &sc, pts, Tour(s.Perm(200)), nil) == 0 || sc.stamp >= math.MaxUint32-1 {
		t.Fatalf("the stamp did not wrap in a pass that moved (stamp %d)", sc.stamp)
	}
}

// FuzzOrOpt holds OrOpt to orOptRef on decoded inputs. Byte 0 sets the
// mode: bit 0 moves the field 1e6 m out and bit 1 decodes a seed list,
// whose length is byte 2 and whose entries (point indices mod n) are the
// bytes after it; without bit 1 the seed list is nil, the whole tour.
// Byte 1 rotates the starting tour, the points in their decoded order,
// so segments cross the array end at different places. Each later pair
// of bytes is one point (x, y) in metres, so a repeated pair is a
// coincident point and a repeated y puts points on a line; at most 64
// points.
func FuzzOrOpt(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		off := 0.0
		if data[0]&1 != 0 {
			off = 1e6
		}
		rot, rest := int(data[1]), data[2:]
		var raw []byte
		if data[0]&2 != 0 && len(rest) > 0 {
			k := min(int(rest[0]), len(rest)-1)
			raw, rest = rest[1:1+k], rest[1+k:]
		}
		var pts []geom.Point
		for k := 0; k+1 < len(rest) && len(pts) < 64; k += 2 {
			pts = append(pts, geom.Pt(off+float64(rest[k]), off+float64(rest[k+1])))
		}
		n := len(pts)
		if n == 0 {
			return
		}
		var seeds []int
		if data[0]&2 != 0 {
			seeds = []int{}
			for _, b := range raw {
				seeds = append(seeds, int(b)%n)
			}
		}
		tour := make(Tour, n)
		for k := range tour {
			tour[k] = (k + rot) % n
		}
		var s Scratch
		checkOrOpt(t, fmt.Sprintf("%d points, rotation %d, seeds %v", n, rot%n, seeds), &s, pts, tour, seeds)
	})
}
