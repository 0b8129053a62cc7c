package tsp

import (
	"fmt"
	"slices"
	"testing"

	"mobicol/internal/geom"
	"mobicol/internal/rng"
)

// noLonger reports whether a tour of length got is no longer than one of
// length start, up to rounding in the two length sums.
func noLonger(got, start geom.Meters) bool {
	return got <= start+1e-9*(1+start)
}

// checkImprove runs Improve on pts from seeds and fails unless it
// returns a permutation of pts no longer than the identity tour, and for
// an empty, non-nil seed list the identity tour itself with no moves.
func checkImprove(t *testing.T, name string, pts []geom.Point, opts Options, seeds []int) Tour {
	t.Helper()
	got, moves := Improve(pts, opts, seeds)
	if err := got.Validate(len(pts)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if start, after := trivialTour(len(pts)).Length(pts), got.Length(pts); !noLonger(after, start) {
		t.Fatalf("%s: Improve lengthened the identity tour %.9f -> %.9f", name, start, after)
	}
	if seeds != nil && len(seeds) == 0 && (moves != 0 || !slices.Equal(got, trivialTour(len(pts)))) {
		t.Fatalf("%s: Improve with no seeds made %d moves: %v", name, moves, got)
	}
	return got
}

// visitPoints returns pts in the visit order of tour.
func visitPoints(pts []geom.Point, tour Tour) []geom.Point {
	visit := make([]geom.Point, len(tour))
	for k, i := range tour {
		visit[k] = pts[i]
	}
	return visit
}

// TestImproveNeverLongerThanInput runs Improve on every neighbour-list
// family (uniform, a lattice with duplicates, clusters, a line,
// coincident points, a field 1e17 m up) and on n ≤ 3, from the input
// order and from a solved tour handed over in visit order, with Held–Karp
// on and off, over the whole tour, from two seeds and from none: each
// result is a permutation no longer than its input, and no seeds leave
// the input as it is.
func TestImproveNeverLongerThanInput(t *testing.T) {
	fams := neighborFamilies(rng.New(3))
	for n := 0; n <= 3; n++ {
		fams = append(fams, neighborFamily{fmt.Sprintf("n=%d", n), randPts(rng.New(uint64(n)), n, 100)})
	}
	for _, f := range fams {
		seedings := [][]int{nil, {}}
		if n := len(f.pts); n > 0 {
			seedings = append(seedings, []int{0, n / 2})
		}
		for _, seeds := range seedings {
			for _, opts := range []Options{DefaultOptions(), {TwoOpt: true}, {OrOpt: true}} {
				checkImprove(t, fmt.Sprintf("%s/exact<=%d/seeds=%v", f.name, opts.ExactBelow, seeds), f.pts, opts, seeds)
			}
			solved := Solve(f.pts, Options{Construction: ConstructNN})
			checkImprove(t, fmt.Sprintf("%s/solved/seeds=%v", f.name, seeds), visitPoints(f.pts, solved), DefaultOptions(), seeds)
		}
	}
}

// TestImproveIsHeldKarpAtExactBelow: at n = ExactBelow Improve returns
// Held–Karp's tour, whatever order the points come in.
func TestImproveIsHeldKarpAtExactBelow(t *testing.T) {
	opts := DefaultOptions()
	for seed := uint64(0); seed < 5; seed++ {
		pts := randPts(rng.New(seed), opts.ExactBelow, 200)
		want, err := HeldKarp(pts)
		if err != nil {
			t.Fatal(err)
		}
		if got := checkImprove(t, fmt.Sprintf("seed %d", seed), pts, opts, nil); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Improve %v, Held–Karp %v", seed, got, want)
		}
	}
}

// FuzzImprove decodes bytes into a point set and a seed list and
// requires Improve to return a permutation no longer than the identity
// tour, both in the decoded order and in the visit order of Solve's
// tour, where a pass that lengthens an already good tour shows; an empty
// seed list must return the input order unchanged. Byte 0 sets the
// mode: bit 0 moves the field 1e6 m out, bit 1 turns Held–Karp off so
// the local search runs at every size, and bit 2 decodes a seed list,
// whose length is byte 1 and whose entries (point indices mod n) are the
// bytes after it; without bit 2 the seed list is nil, the whole tour.
// Each later pair of bytes is one point (x, y) in metres, so a repeated
// pair is a coincident point and a repeated y puts points on a line; at
// most 40 points.
func FuzzImprove(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		off := 0.0
		if data[0]&1 != 0 {
			off = 1e6
		}
		opts := DefaultOptions()
		if data[0]&2 != 0 {
			opts.ExactBelow = 0
		}
		rest := data[1:]
		var raw []byte
		if data[0]&4 != 0 && len(rest) > 0 {
			k := min(int(rest[0]), len(rest)-1)
			raw, rest = rest[1:1+k], rest[1+k:]
		}
		var pts []geom.Point
		for k := 0; k+1 < len(rest) && len(pts) < 40; k += 2 {
			pts = append(pts, geom.Pt(off+float64(rest[k]), off+float64(rest[k+1])))
		}
		var seeds []int
		if data[0]&4 != 0 {
			seeds = []int{}
			for _, b := range raw {
				if len(pts) > 0 {
					seeds = append(seeds, int(b)%len(pts))
				}
			}
		}
		name := fmt.Sprintf("%d points, seeds %v", len(pts), seeds)
		checkImprove(t, name, pts, opts, seeds)
		checkImprove(t, name+", solved", visitPoints(pts, Solve(pts, opts)), opts, seeds)
	})
}
