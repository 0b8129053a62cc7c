package tsp

import (
	"math"
	"slices"
	"testing"

	"mobicol/internal/rng"
)

// TestGreedyEdgeSparseValid pins the k-nearest construction on a
// mid-size instance: GreedyEdge must emit a valid Hamiltonian cycle and
// stay competitive with nearest neighbour.
func TestGreedyEdgeSparseValid(t *testing.T) {
	n := 2500
	pts := randPts(rng.New(3), n, 2000)
	tour := GreedyEdge(pts)
	if err := tour.Validate(n); err != nil {
		t.Fatalf("sparse greedy-edge: %v", err)
	}
	nn := NearestNeighbor(pts, 0)
	if tour.Length(pts) > nn.Length(pts)*1.1 {
		t.Fatalf("sparse greedy-edge %.0f much worse than NN %.0f",
			tour.Length(pts), nn.Length(pts))
	}
}

// greedyMSTRatio pins greedy-edge (before local search) against the MST
// lower bound on uniform fields. Seeds 1–19 at n ∈ {300, 1500, 3000}
// measure 1.28–1.43; a 2x ratio is what any MST walk already guarantees.
const greedyMSTRatio = 1.5

// TestGreedyEdgeWithinMSTBound holds the construction to the pinned ratio
// over the MST lower bound (OPT >= MST) from a few hundred to a few
// thousand points.
func TestGreedyEdgeWithinMSTBound(t *testing.T) {
	for _, n := range []int{300, 1500, 3000} {
		for seed := uint64(9); seed < 11; seed++ {
			pts := randPts(rng.New(seed), n, 40*math.Sqrt(float64(n)))
			tour := GreedyEdge(pts)
			if err := tour.Validate(n); err != nil {
				t.Fatalf("n=%d seed %d: %v", n, seed, err)
			}
			if got, mst := tour.Length(pts), MSTLowerBound(pts); got > greedyMSTRatio*mst {
				t.Fatalf("n=%d seed %d: greedy-edge %.1f exceeds %.2f x MST %.1f",
					n, seed, got, greedyMSTRatio, mst)
			}
		}
	}
}

// TestSeededMatchesFullWhenSeededEverywhere pins the seeded local-search
// passes to the full ones: seeding with the whole tour in tour order is
// the same initial queue as a nil seed list, so the move sequences — and
// the final tours — are identical.
func TestSeededMatchesFullWhenSeededEverywhere(t *testing.T) {
	for seed := uint64(21); seed < 25; seed++ {
		pts := randPts(rng.New(seed), 150, 400)
		nb := NewNeighbors(pts)
		base := GreedyEdge(pts)

		full := slices.Clone(base)
		seeded := slices.Clone(base)
		var s1, s2 Scratch
		m1 := s1.TwoOpt(pts, full, nb, nil)
		m2 := s2.TwoOpt(pts, seeded, nb, slices.Clone(seeded))
		if m1 != m2 || !slices.Equal(full, seeded) {
			t.Fatalf("seed %d: TwoOpt seeded everywhere diverged from nil seeds (%d vs %d moves)", seed, m2, m1)
		}
		m1 = s1.OrOpt(pts, full, nb, nil)
		m2 = s2.OrOpt(pts, seeded, nb, slices.Clone(seeded))
		if m1 != m2 || !slices.Equal(full, seeded) {
			t.Fatalf("seed %d: OrOpt seeded everywhere diverged from nil seeds (%d vs %d moves)", seed, m2, m1)
		}
	}
}

// TestSeededEmptyIsNoop: an empty seed set must leave the tour untouched
// — the invariant warm-start repair relies on for the Δ=∅ case.
func TestSeededEmptyIsNoop(t *testing.T) {
	pts := randPts(rng.New(5), 80, 300)
	nb := NewNeighbors(pts)
	tour := GreedyEdge(pts)
	before := slices.Clone(tour)
	var s Scratch
	if m := s.TwoOpt(pts, tour, nb, nil2()); m != 0 || !slices.Equal(tour, before) {
		t.Fatalf("TwoOpt(empty seeds) moved: %d", m)
	}
	if m := s.OrOpt(pts, tour, nb, nil2()); m != 0 || !slices.Equal(tour, before) {
		t.Fatalf("OrOpt(empty seeds) moved: %d", m)
	}
	if got, m := Improve(visitPoints(pts, tour), DefaultOptions(), nil2()); m != 0 || !slices.Equal(got, trivialTour(len(pts))) {
		t.Fatalf("Improve(empty seeds) moved: %d", m)
	}
}

// nil2 returns an empty non-nil seed slice: nil means "seed everywhere",
// empty means "seed nothing".
func nil2() []int { return []int{} }

// TestSeededLocalises: seeding a single point must examine (and move)
// only near the seed, leaving a far-away already-locally-optimal region
// alone, and never lengthen the tour.
func TestSeededLocalises(t *testing.T) {
	pts := randPts(rng.New(7), 200, 500)
	nb := NewNeighbors(pts)
	tour := NearestNeighbor(pts, 0)
	before := tour.Length(pts)
	var s Scratch
	s.TwoOpt(pts, tour, nb, []int{tour[10], tour[11]})
	if err := tour.Validate(len(pts)); err != nil {
		t.Fatal(err)
	}
	if after := tour.Length(pts); after > before+1e-9 {
		t.Fatalf("seeded 2-opt lengthened the tour: %.3f -> %.3f", before, after)
	}
}

// TestSeededMatchesFullOnDuplicateSeeds: duplicate seeds collapse via the
// don't-look bits, so the result matches the deduplicated seed set.
func TestSeededMatchesFullOnDuplicateSeeds(t *testing.T) {
	pts := randPts(rng.New(8), 100, 300)
	nb := NewNeighbors(pts)
	a := NearestNeighbor(pts, 0)
	b := slices.Clone(a)
	var s1, s2 Scratch
	m1 := s1.TwoOpt(pts, a, nb, []int{3, 7})
	m2 := s2.TwoOpt(pts, b, nb, []int{3, 7, 3, 7, 7})
	if m1 != m2 || !slices.Equal(a, b) {
		t.Fatalf("duplicate seeds diverged: %d vs %d moves", m1, m2)
	}
}
