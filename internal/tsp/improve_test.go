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

// checkImprove runs Improve on pts and fails unless it returns a
// permutation of pts no longer than the identity tour.
func checkImprove(t *testing.T, name string, pts []geom.Point, opts Options) Tour {
	t.Helper()
	got := Improve(pts, opts)
	if err := got.Validate(len(pts)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if start, after := trivialTour(len(pts)).Length(pts), got.Length(pts); !noLonger(after, start) {
		t.Fatalf("%s: Improve lengthened the identity tour %.9f -> %.9f", name, start, after)
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
// on and off: each result is a permutation no longer than its input.
func TestImproveNeverLongerThanInput(t *testing.T) {
	fams := neighborFamilies(rng.New(3))
	for n := 0; n <= 3; n++ {
		fams = append(fams, neighborFamily{fmt.Sprintf("n=%d", n), randPts(rng.New(uint64(n)), n, 100)})
	}
	for _, f := range fams {
		for _, opts := range []Options{DefaultOptions(), {TwoOpt: true}, {OrOpt: true}} {
			checkImprove(t, fmt.Sprintf("%s/exact<=%d", f.name, opts.ExactBelow), f.pts, opts)
		}
		solved := Solve(f.pts, Options{Construction: ConstructNN})
		checkImprove(t, f.name+"/solved", visitPoints(f.pts, solved), DefaultOptions())
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
		if got := checkImprove(t, fmt.Sprintf("seed %d", seed), pts, opts); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Improve %v, Held–Karp %v", seed, got, want)
		}
	}
}

// FuzzImprove decodes bytes into a point set and requires Improve to
// return a permutation no longer than the identity tour, both in the
// decoded order and in the visit order of Solve's tour, where a pass
// that lengthens an already good tour shows. Byte 0 sets the mode: bit 0
// moves the field 1e6 m out, bit 1 turns Held–Karp off so the local
// search runs at every size. Each later pair of bytes is one point
// (x, y) in metres, so a repeated pair is a coincident point and a
// repeated y puts points on a line; at most 40 points.
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
		var pts []geom.Point
		for k := 1; k+1 < len(data) && len(pts) < 40; k += 2 {
			pts = append(pts, geom.Pt(off+float64(data[k]), off+float64(data[k+1])))
		}
		checkImprove(t, fmt.Sprintf("%d points", len(pts)), pts, opts)
		checkImprove(t, fmt.Sprintf("%d points, solved", len(pts)), visitPoints(pts, Solve(pts, opts)), opts)
	})
}
