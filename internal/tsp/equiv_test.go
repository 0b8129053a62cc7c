package tsp

import (
	"fmt"
	"math"
	"testing"

	"mobicol/internal/rng"
)

// TestNeighborListsMatchFullSort pins the grid-backed construction to the
// quadratic oracle: same neighbours, same order, for every point.
func TestNeighborListsMatchFullSort(t *testing.T) {
	for _, n := range []int{5, 30, 200} {
		for seed := uint64(5); seed < 8; seed++ {
			pts := randPts(rng.New(seed), n, 300)
			k := min(neighborK, n-1)
			got, _ := neighborLists(pts, neighborK)
			for i := range pts {
				want := sortedNeighbors(pts, i, k)
				if len(got[i]) != len(want) {
					t.Fatalf("n=%d seed=%d point %d: %d neighbours, want %d",
						n, seed, i, len(got[i]), len(want))
				}
				for j := range want {
					if got[i][j] != want[j] {
						t.Fatalf("n=%d seed=%d point %d slot %d: %d, want %d",
							n, seed, i, j, got[i][j], want[j])
					}
				}
			}
		}
	}
}

// TestNeighborListsCoincidentPoints exercises the degenerate-geometry
// fallback: every point at the same location still yields full lists.
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
