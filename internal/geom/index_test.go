package geom

import (
	"math"
	"sort"
	"testing"

	"mobicol/internal/rng"
)

func randPoints(s *rng.Source, n int, l float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(s.Uniform(0, l), s.Uniform(0, l))
	}
	return pts
}

// bruteWithin is the reference implementation for range queries.
func bruteWithin(pts []Point, q Point, r float64) []int {
	var out []int
	for i, p := range pts {
		if p.Dist2(q) <= r*r+Eps {
			out = append(out, i)
		}
	}
	return out
}

// bruteNearest is the reference nearest-point scan: the lowest index
// among the closest points that skip (when non-nil) does not exclude.
func bruteNearest(pts []Point, q Point, skip func(i int) bool) int {
	best, bestD2 := -1, math.Inf(1)
	for i, p := range pts {
		if d2 := p.Dist2(q); (best < 0 || d2 < bestD2) && (skip == nil || !skip(i)) {
			best, bestD2 = i, d2
		}
	}
	return best
}

// Cells returns the dimensions of the cell table, for the sizing tests.
func (g *GridIndex) Cells() (cols, rows int) { return g.cols, g.rows }

func sameIndexSet(t *testing.T, got, want []int, what string) {
	t.Helper()
	sort.Ints(got)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d hits, want %d (%v vs %v)", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: mismatch at %d: %v vs %v", what, i, got, want)
		}
	}
}

func TestGridIndexWithinMatchesBrute(t *testing.T) {
	s := rng.New(10)
	pts := randPoints(s, 300, 200)
	g := NewGridIndex(pts, 30)
	for trial := 0; trial < 50; trial++ {
		q := Pt(s.Uniform(-20, 220), s.Uniform(-20, 220))
		r := s.Uniform(5, 60)
		got := g.Within(q, r, nil)
		sameIndexSet(t, got, bruteWithin(pts, q, r), "GridIndex.Within")
	}
}

func TestGridIndexNearestMatchesBrute(t *testing.T) {
	s := rng.New(11)
	pts := randPoints(s, 200, 150)
	g := NewGridIndex(pts, 25)
	for trial := 0; trial < 100; trial++ {
		q := Pt(s.Uniform(-30, 180), s.Uniform(-30, 180))
		got := g.Nearest(q, nil)
		want := bruteNearest(pts, q, nil)
		if pts[got].Dist(q) > pts[want].Dist(q)+1e-9 {
			t.Fatalf("Nearest returned %d (d=%v), brute %d (d=%v)",
				got, pts[got].Dist(q), want, pts[want].Dist(q))
		}
	}
}

// TestGridIndexNearestWithSkip checks the skip predicate against brute
// force under random skip sets, exact index included (ties toward the
// lower index), and -1 once every point is skipped.
func TestGridIndexNearestWithSkip(t *testing.T) {
	s := rng.New(12)
	pts := randPoints(s, 400, 300)
	pts = append(pts, pts[:40]...) // coincident pairs exercise the tie-break
	for _, cell := range []float64{7, 40} {
		g := NewGridIndex(pts, cell)
		for trial := 0; trial < 100; trial++ {
			skipped := make([]bool, len(pts))
			frac := s.Uniform(0, 1)
			for i := range skipped {
				skipped[i] = s.Uniform(0, 1) < frac
			}
			skip := func(i int) bool { return skipped[i] }
			q := Pt(s.Uniform(-50, 350), s.Uniform(-50, 350))
			if got, want := g.Nearest(q, skip), bruteNearest(pts, q, skip); got != want {
				t.Fatalf("cell %v trial %d: Nearest = %d, brute %d", cell, trial, got, want)
			}
		}
	}
	g := NewGridIndex([]Point{Pt(0, 0), Pt(1, 0), Pt(5, 0)}, 1)
	if got := g.Nearest(Pt(0.1, 0), func(i int) bool { return i == 0 }); got != 1 {
		t.Fatalf("skip: got %d, want 1", got)
	}
	if got := g.Nearest(Pt(0, 0), func(int) bool { return true }); got != -1 {
		t.Fatalf("all-skipped query = %d, want -1", got)
	}
}

func TestGridIndexEmpty(t *testing.T) {
	g := NewGridIndex(nil, 10)
	if g.Nearest(Pt(0, 0), nil) != -1 {
		t.Fatal("Nearest on empty index should be -1")
	}
	if got := g.Within(Pt(0, 0), 5, nil); len(got) != 0 {
		t.Fatal("Within on empty index should be empty")
	}
}

// TestGridIndexEmptyWithSkip checks every constructor on an empty point
// set: Len 0, -1 from Nearest with and without a skip predicate, and no
// Within hits.
func TestGridIndexEmptyWithSkip(t *testing.T) {
	for _, g := range []*GridIndex{NewGridIndex(nil, 10), NewGridIndexFor(nil, 30), NewGridIndexAuto(nil, 0)} {
		if g.Len() != 0 {
			t.Fatalf("empty index Len = %d", g.Len())
		}
		if g.Nearest(Pt(0, 0), nil) != -1 {
			t.Fatal("Nearest on empty index should be -1")
		}
		if g.Nearest(Pt(0, 0), func(int) bool { return false }) != -1 {
			t.Fatal("Nearest with skip on empty index should be -1")
		}
		if got := g.Within(Pt(0, 0), 5, nil); len(got) != 0 {
			t.Fatal("Within on empty index should be empty")
		}
	}
}

func TestGridIndexSinglePoint(t *testing.T) {
	g := NewGridIndex([]Point{Pt(7, 7)}, 10)
	if g.Nearest(Pt(100, 100), nil) != 0 {
		t.Fatal("Nearest should find the only point")
	}
	if got := g.Within(Pt(7, 8), 2, nil); len(got) != 1 {
		t.Fatal("Within should find the only point")
	}
}

func TestGridIndexReusesBuffer(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 0), Pt(2, 0)}
	g := NewGridIndex(pts, 1)
	buf := make([]int, 0, 8)
	got := g.Within(Pt(0, 0), 1.5, buf)
	if len(got) != 2 {
		t.Fatalf("Within = %v", got)
	}
}

// TestGridIndexAuto10k is the large-n sizing test: at 10k points on a
// dense field, an occupancy-derived cell must keep the table O(n), keep
// per-cell population near the target, and answer queries identically
// to brute force.
func TestGridIndexAuto10k(t *testing.T) {
	const n = 10_000
	side := 200.0 * math.Sqrt(float64(n)/100.0)
	s := rng.New(42)
	pts := randPoints(s, n, side)
	g := NewGridIndexAuto(pts, 0)
	cols, rows := g.Cells()
	if cells := cols * rows; cells > 4*n+64 {
		t.Fatalf("auto-sized table has %d cells for %d points; want O(n)", cells, n)
	}
	if occ := float64(n) / float64(cols*rows); occ < 0.5 || occ > 8 {
		t.Fatalf("auto-sized occupancy %.2f points/cell; want near %v", occ, DefaultGridOccupancy)
	}
	for trial := 0; trial < 25; trial++ {
		q := Pt(s.Uniform(-40, side+40), s.Uniform(-40, side+40))
		r := s.Uniform(5, 60)
		sameIndexSet(t, g.Within(q, r, nil), bruteWithin(pts, q, r), "auto GridIndex.Within")
		got := g.Nearest(q, nil)
		want := bruteNearest(pts, q, nil)
		if pts[got].Dist(q) > pts[want].Dist(q)+1e-9 {
			t.Fatalf("auto Nearest returned %d (d=%v), brute %d (d=%v)",
				got, pts[got].Dist(q), want, pts[want].Dist(q))
		}
		gotIn, gotD2 := g.NearestWithin(q, r)
		wantIn := -1
		for _, i := range bruteWithin(pts, q, r) {
			if wantIn == -1 || pts[i].Dist2(q) < pts[wantIn].Dist2(q) {
				wantIn = i
			}
		}
		if gotIn != wantIn {
			t.Fatalf("NearestWithin = %d, brute %d", gotIn, wantIn)
		}
		if wantIn >= 0 && gotD2 != pts[wantIn].Dist2(q) {
			t.Fatalf("NearestWithin d2 = %v, want %v", gotD2, pts[wantIn].Dist2(q))
		}
	}
}

func TestGridIndexAutoDegenerate(t *testing.T) {
	coincident := []Point{Pt(3, 3), Pt(3, 3), Pt(3, 3)}
	g := NewGridIndexAuto(coincident, 2)
	if got := g.Within(Pt(3, 3), 1, nil); len(got) != 3 {
		t.Fatalf("coincident Within = %v", got)
	}
	collinear := []Point{Pt(0, 5), Pt(10, 5), Pt(20, 5), Pt(30, 5)}
	g = NewGridIndexAuto(collinear, 2)
	sameIndexSet(t, g.Within(Pt(15, 5), 6, nil), bruteWithin(collinear, Pt(15, 5), 6), "collinear Within")
	if g.Nearest(Pt(8, 5), nil) != 1 {
		t.Fatalf("collinear Nearest = %d, want 1", g.Nearest(Pt(8, 5), nil))
	}
	if NewGridIndexAuto(nil, 0).Nearest(Pt(0, 0), nil) != -1 {
		t.Fatal("empty auto index Nearest should be -1")
	}
}

// TestGridIndexForDense asserts the radius-aware constructor switches to
// occupancy sizing on dense fields (where radius-sized cells would hold
// many points) and keeps query results exact either way.
func TestGridIndexForDense(t *testing.T) {
	s := rng.New(17)
	pts := randPoints(s, 2000, 200) // dense: r=30 cells would hold ~45 points
	g := NewGridIndexFor(pts, 30)
	if g.cell >= 30 {
		t.Fatalf("dense field kept radius-sized cell %v", g.cell)
	}
	for trial := 0; trial < 20; trial++ {
		q := Pt(s.Uniform(0, 200), s.Uniform(0, 200))
		sameIndexSet(t, g.Within(q, 30, nil), bruteWithin(pts, q, 30), "dense NewGridIndexFor.Within")
	}
	sparse := randPoints(s, 20, 200)
	if g := NewGridIndexFor(sparse, 30); g.cell != 30 {
		t.Fatalf("sparse field should keep radius-sized cell, got %v", g.cell)
	}
}

func TestGridIndexDuplicatePoints(t *testing.T) {
	pts := []Point{Pt(2, 2), Pt(1, 1), Pt(1, 1), Pt(1, 1)}
	g := NewGridIndexAuto(pts, 0)
	if got := g.Within(Pt(1, 1), 0.5, nil); len(got) != 3 {
		t.Fatalf("duplicates: got %v", got)
	}
	if got := g.Nearest(Pt(1, 1), nil); got != 1 {
		t.Fatalf("duplicates: Nearest = %d, want the lowest index 1", got)
	}
}

func BenchmarkGridIndexBuild(b *testing.B) {
	pts := randPoints(rng.New(1), 1000, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewGridIndex(pts, 30)
	}
}

func BenchmarkGridIndexAutoBuild10k(b *testing.B) {
	pts := randPoints(rng.New(1), 10_000, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewGridIndexAuto(pts, 0)
	}
}

func BenchmarkGridIndexWithin(b *testing.B) {
	pts := randPoints(rng.New(1), 1000, 500)
	g := NewGridIndex(pts, 30)
	buf := make([]int, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Within(pts[i%len(pts)], 30, buf[:0])
	}
}

func BenchmarkGridIndexNearest(b *testing.B) {
	pts := randPoints(rng.New(1), 1000, 500)
	g := NewGridIndexAuto(pts, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Nearest(pts[i%len(pts)], nil)
	}
}
