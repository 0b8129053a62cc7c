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
// k-nearest list, the oracle neighborLists is held to.
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

// TestNeighborListsMatchFullSort pins the grid-backed construction to the
// quadratic oracle: same neighbours, same order, for every point of
// every family, with k below n-1 and at or past it.
func TestNeighborListsMatchFullSort(t *testing.T) {
	for seed := uint64(5); seed < 8; seed++ {
		for _, fam := range neighborFamilies(rng.New(seed)) {
			pts := fam.pts
			for _, k := range []int{neighborK, len(pts) - 1, len(pts) + 2} {
				got, _ := neighborLists(pts, k)
				for i := range pts {
					want := sortedNeighbors(pts, i, min(k, len(pts)-1))
					if !slices.Equal(got[i], want) {
						t.Fatalf("%s seed=%d k=%d point %d: %v, want %v", fam.name, seed, k, i, got[i], want)
					}
				}
			}
		}
	}
}

// TestCandidateEdgesOncePerPair pins greedy-edge's candidate set to its
// reference: every pair some k-nearest list names, normalised to u < v
// and deduplicated, in ascending (w, u, v) order by cmp.Compare.
func TestCandidateEdgesOncePerPair(t *testing.T) {
	for _, fam := range neighborFamilies(rng.New(9)) {
		pts := fam.pts
		neigh, _ := neighborLists(pts, neighborK)
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
		if got := candidateEdges(pts, neigh); !slices.Equal(got, want) {
			t.Fatalf("%s: %d candidate edges, want the %d distinct list pairs in (w, u, v) order", fam.name, len(got), len(want))
		}
	}
}

// TestNeighborListsCoincidentPoints checks degenerate geometry: every
// point at the same location, one grid cell, still yields full lists.
func TestNeighborListsCoincidentPoints(t *testing.T) {
	pts := randPts(rng.New(1), 6, 0) // Uniform(0,0) puts every point at the origin
	lists, _ := neighborLists(pts, neighborK)
	for i, l := range lists {
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
		neigh, _ := neighborLists(pts, neighborK)
		before := tour.Length(pts)
		var s Scratch
		moves := s.OrOpt(pts, tour, neigh)
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
