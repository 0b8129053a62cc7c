package tsp

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"mobicol/internal/geom"
	"mobicol/internal/graph"
	"mobicol/internal/rng"
)

// Validate checks that t is a permutation of [0, n).
func (t Tour) Validate(n int) error {
	if len(t) != n {
		return fmt.Errorf("tsp: tour has %d stops, want %d", len(t), n)
	}
	seen := make([]bool, n)
	for _, v := range t {
		if v < 0 || v >= n {
			return fmt.Errorf("tsp: tour index %d out of range [0,%d)", v, n)
		}
		if seen[v] {
			return fmt.Errorf("tsp: tour visits %d twice", v)
		}
		seen[v] = true
	}
	return nil
}

// GreedyEdge is the greedy-edge construction over its own k-nearest
// lists, the one-call form the construction tests drive.
func GreedyEdge(pts []geom.Point) Tour {
	if len(pts) <= 3 {
		return trivialTour(len(pts))
	}
	return greedyEdge(pts, NewNeighbors(pts))
}

// twoOpt and orOpt run one Scratch local-search pass over fresh
// k-nearest lists, the one-call form the invariant tests drive.
func twoOpt(pts []geom.Point, tour Tour) int {
	var s Scratch
	return s.TwoOpt(pts, tour, NewNeighbors(pts), nil)
}

func orOpt(pts []geom.Point, tour Tour) int {
	var s Scratch
	return s.OrOpt(pts, tour, NewNeighbors(pts), nil)
}

// OneTreeLowerBound returns the best 1-tree bound over all choices of the
// special vertex: MST over the other n-1 points plus that vertex's two
// cheapest edges. The 1-tree bound dominates the plain MST bound, so the
// quality tests hold tours against it.
func OneTreeLowerBound(pts []geom.Point) geom.Meters {
	n := len(pts)
	if n < 3 {
		return MSTLowerBound(pts)
	}
	best := 0.0
	rest := make([]geom.Point, 0, n-1)
	for special := 0; special < n; special++ {
		rest = rest[:0]
		for i, p := range pts {
			if i != special {
				rest = append(rest, p)
			}
		}
		_, mst := graph.CompleteEuclideanMST(len(rest), func(i, j int) float64 { return rest[i].Dist(rest[j]) })
		// Two cheapest edges from the special vertex.
		e1, e2 := math.Inf(1), math.Inf(1)
		for i, p := range pts {
			if i == special {
				continue
			}
			d := pts[special].Dist(p)
			if d < e1 {
				e1, e2 = d, e1
			} else if d < e2 {
				e2 = d
			}
		}
		if b := mst + e1 + e2; b > best {
			best = b
		}
	}
	return geom.Meters(best)
}

func randPts(s *rng.Source, n int, l float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(s.Uniform(0, l), s.Uniform(0, l))
	}
	return pts
}

// square4 is a unit square whose optimal tour has length 4.
var square4 = []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}

func TestTourLengthAndValidate(t *testing.T) {
	tour := Tour{0, 1, 2, 3}
	if got := tour.Length(square4); math.Abs(float64(got)-4) > 1e-12 {
		t.Fatalf("Length = %v", got)
	}
	if err := tour.Validate(4); err != nil {
		t.Fatal(err)
	}
	if err := (Tour{0, 1, 1, 3}).Validate(4); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := (Tour{0, 1, 2}).Validate(4); err == nil {
		t.Fatal("short tour accepted")
	}
	if err := (Tour{0, 1, 2, 4}).Validate(4); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestTourDegenerateLengths(t *testing.T) {
	if (Tour{}).Length(nil) != 0 || (Tour{0}).Length(square4) != 0 {
		t.Fatal("degenerate tour lengths should be 0")
	}
	two := Tour{0, 1}
	if got := two.Length(square4); math.Abs(float64(got)-2) > 1e-12 {
		t.Fatalf("two-point tour length = %v (out and back)", got)
	}
}

func TestRotateTo(t *testing.T) {
	tour := Tour{2, 0, 3, 1}
	before := float64(tour.Length(square4))
	tour.RotateTo(3)
	if tour[0] != 3 {
		t.Fatalf("RotateTo: %v", tour)
	}
	if err := tour.Validate(4); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(tour.Length(square4))-before) > 1e-12 {
		t.Fatal("rotation changed length")
	}
	tour.RotateTo(99) // absent: no-op
	if tour[0] != 3 {
		t.Fatal("RotateTo absent index mutated tour")
	}
}

type namedConstruction struct {
	name  string
	build func([]geom.Point) Tour
}

// constructions returns the heuristics in a fixed order so tests iterate
// deterministically (map order would randomize failure reporting).
func constructions() []namedConstruction {
	return []namedConstruction{
		{"nn", func(p []geom.Point) Tour { return NearestNeighbor(p, 0) }},
		{"greedy", GreedyEdge},
		{"dtree", DoubleTree},
	}
}

func TestConstructionsProduceValidTours(t *testing.T) {
	s := rng.New(50)
	for _, c := range constructions() {
		name, build := c.name, c.build
		for _, n := range []int{1, 2, 3, 4, 5, 10, 40, 120} {
			pts := randPts(s, n, 100)
			tour := build(pts)
			if err := tour.Validate(n); err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
		}
	}
}

func TestConstructionsOnSquare(t *testing.T) {
	for _, c := range constructions() {
		name, build := c.name, c.build
		tour := build(square4)
		if got := tour.Length(square4); math.Abs(float64(got)-4) > 1e-9 {
			t.Fatalf("%s on unit square: length %v, want 4", name, got)
		}
	}
}

func TestDoubleTreeWithinTwiceMST(t *testing.T) {
	s := rng.New(51)
	for trial := 0; trial < 20; trial++ {
		pts := randPts(s, 5+s.Intn(80), 200)
		tour := DoubleTree(pts)
		mst := MSTLowerBound(pts)
		if got := tour.Length(pts); got > 2*mst+1e-9 {
			t.Fatalf("double-tree %v exceeds 2*MST %v", got, 2*mst)
		}
	}
}

func TestTwoOptNeverIncreasesLength(t *testing.T) {
	s := rng.New(52)
	for trial := 0; trial < 30; trial++ {
		pts := randPts(s, 4+s.Intn(100), 150)
		tour := NearestNeighbor(pts, 0)
		before := tour.Length(pts)
		twoOpt(pts, tour)
		after := tour.Length(pts)
		if after > before+1e-9 {
			t.Fatalf("2-opt increased length %v -> %v", before, after)
		}
		if err := tour.Validate(len(pts)); err != nil {
			t.Fatalf("2-opt broke tour: %v", err)
		}
	}
}

func TestOrOptNeverIncreasesLength(t *testing.T) {
	s := rng.New(53)
	for trial := 0; trial < 30; trial++ {
		pts := randPts(s, 5+s.Intn(60), 150)
		tour := NearestNeighbor(pts, 0)
		before := tour.Length(pts)
		orOpt(pts, tour)
		after := tour.Length(pts)
		if after > before+1e-9 {
			t.Fatalf("Or-opt increased length %v -> %v", before, after)
		}
		if err := tour.Validate(len(pts)); err != nil {
			t.Fatalf("Or-opt broke tour: %v", err)
		}
	}
}

func TestTwoOptUncrossesSquare(t *testing.T) {
	// The crossing tour 0,2,1,3 on the unit square has length 2+2*sqrt2;
	// 2-opt must uncross it to length 4.
	pts := square4
	tour := Tour{0, 2, 1, 3}
	twoOpt(pts, tour)
	if got := tour.Length(pts); math.Abs(float64(got)-4) > 1e-9 {
		t.Fatalf("2-opt left length %v, want 4", got)
	}
}

func TestHeldKarpKnownOptimum(t *testing.T) {
	tour, err := HeldKarp(square4)
	if err != nil {
		t.Fatal(err)
	}
	if got := tour.Length(square4); math.Abs(float64(got)-4) > 1e-9 {
		t.Fatalf("HeldKarp square length %v", got)
	}
	if err := tour.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestHeldKarpRejectsLarge(t *testing.T) {
	if _, err := HeldKarp(make([]geom.Point, HeldKarpMax+1)); err == nil {
		t.Fatal("oversized instance accepted")
	}
}

func TestHeldKarpMatchesBruteForce(t *testing.T) {
	s := rng.New(54)
	for trial := 0; trial < 10; trial++ {
		n := 4 + s.Intn(5) // 4..8
		pts := randPts(s, n, 100)
		hk, err := HeldKarp(pts)
		if err != nil {
			t.Fatal(err)
		}
		if err := hk.Validate(n); err != nil {
			t.Fatal(err)
		}
		want := bruteForceOpt(pts)
		if got := hk.Length(pts); math.Abs(float64(got)-want) > 1e-6 {
			t.Fatalf("HeldKarp %v != brute force %v (n=%d)", got, want, n)
		}
	}
}

// heldKarpRef is the row-per-mask Held–Karp the flat table replaced,
// kept as its oracle: a [][]float64 and a [][]int8 over every mask.
func heldKarpRef(pts []geom.Point) Tour {
	n := len(pts)
	if n <= 3 {
		return trivialTour(n)
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = pts[i].Dist(pts[j])
		}
	}
	size := 1 << uint(n)
	dp := make([][]float64, size)
	parent := make([][]int8, size)
	for m := range dp {
		dp[m] = make([]float64, n)
		parent[m] = make([]int8, n)
		for v := range dp[m] {
			dp[m][v] = math.Inf(1)
			parent[m][v] = -1
		}
	}
	dp[1][0] = 0
	for mask := 1; mask < size; mask += 2 {
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) == 0 || math.IsInf(dp[mask][v], 1) {
				continue
			}
			for w := 1; w < n; w++ {
				if mask&(1<<uint(w)) != 0 {
					continue
				}
				nm := mask | 1<<uint(w)
				if nd := dp[mask][v] + d[v][w]; nd < dp[nm][w] {
					dp[nm][w] = nd
					parent[nm][w] = int8(v)
				}
			}
		}
	}
	full := size - 1
	bestV, best := -1, math.Inf(1)
	for v := 1; v < n; v++ {
		if c := dp[full][v] + d[v][0]; c < best {
			bestV, best = v, c
		}
	}
	var tour Tour
	for mask, v := full, bestV; v != -1; {
		tour = append(tour, v)
		pv := parent[mask][v]
		mask &^= 1 << uint(v)
		v = int(pv)
	}
	slices.Reverse(tour)
	return tour
}

// TestHeldKarpMatchesReference pins the flat table to the row-per-mask
// oracle tour for tour, on uniform points and on lattices with
// duplicates, where equal path lengths make the tie-breaking decide.
func TestHeldKarpMatchesReference(t *testing.T) {
	s := rng.New(55)
	for n := 1; n <= 12; n++ {
		lattice := make([]geom.Point, n)
		for i := range lattice {
			lattice[i] = geom.Pt(float64(s.Intn(3)), float64(s.Intn(3)))
		}
		for _, pts := range [][]geom.Point{randPts(s, n, 100), lattice} {
			got, err := HeldKarp(pts)
			if err != nil {
				t.Fatal(err)
			}
			if want := heldKarpRef(pts); !slices.Equal(got, want) {
				t.Fatalf("n=%d %v: flat table %v, reference %v", n, pts, got, want)
			}
		}
	}
}

// bruteForceOpt enumerates all permutations fixing point 0 first.
func bruteForceOpt(pts []geom.Point) float64 {
	n := len(pts)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			if l := float64(Tour(perm).Length(pts)); l < best {
				best = l
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(1)
	return best
}

func TestLowerBoundsBelowOptimum(t *testing.T) {
	s := rng.New(57)
	for trial := 0; trial < 10; trial++ {
		n := 5 + s.Intn(6)
		pts := randPts(s, n, 100)
		opt, err := HeldKarp(pts)
		if err != nil {
			t.Fatal(err)
		}
		optLen := opt.Length(pts)
		mst := MSTLowerBound(pts)
		oneTree := OneTreeLowerBound(pts)
		if mst > optLen+1e-9 {
			t.Fatalf("MST bound %v exceeds optimum %v", mst, optLen)
		}
		if oneTree > optLen+1e-9 {
			t.Fatalf("1-tree bound %v exceeds optimum %v", oneTree, optLen)
		}
		if oneTree < mst-1e-9 {
			t.Fatalf("1-tree bound %v below MST bound %v", oneTree, mst)
		}
	}
}

func TestSolveDefaultNearOptimalSmall(t *testing.T) {
	s := rng.New(58)
	for trial := 0; trial < 10; trial++ {
		n := 6 + s.Intn(6)
		pts := randPts(s, n, 100)
		got := Solve(pts, DefaultOptions()).Length(pts)
		opt, _ := HeldKarp(pts)
		if got > opt.Length(pts)+1e-6 {
			t.Fatalf("Solve with ExactBelow missed optimum: %v vs %v", got, opt.Length(pts))
		}
	}
}

func TestSolveQualityOrdering(t *testing.T) {
	// With local search the tour should beat raw nearest neighbour and
	// stay above the 1-tree lower bound.
	s := rng.New(59)
	pts := randPts(s, 80, 200)
	nn := NearestNeighbor(pts, 0).Length(pts)
	solved := Solve(pts, DefaultOptions()).Length(pts)
	lb := OneTreeLowerBound(pts)
	if solved > nn+1e-9 {
		t.Fatalf("Solve (%v) worse than raw NN (%v)", solved, nn)
	}
	if solved < lb-1e-9 {
		t.Fatalf("Solve (%v) below lower bound (%v): impossible", solved, lb)
	}
	if solved > 1.3*lb {
		t.Fatalf("Solve (%v) more than 30%% above lower bound (%v): local search broken?", solved, lb)
	}
}

func TestSolveAllConstructions(t *testing.T) {
	pts := randPts(rng.New(60), 50, 150)
	for _, c := range []Construction{ConstructNN, ConstructGreedy, ConstructChristofides} {
		tour := Solve(pts, Options{Construction: c, TwoOpt: true, OrOpt: true})
		if err := tour.Validate(len(pts)); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	}
}

// Property: 2-opt + Or-opt preserve the permutation property and never
// lengthen the tour, from any construction, on any instance size.
func TestQuickLocalSearchInvariants(t *testing.T) {
	s := rng.New(61)
	f := func() bool {
		n := 4 + s.Intn(50)
		pts := randPts(s, n, 120)
		tour := GreedyEdge(pts)
		before := tour.Length(pts)
		twoOpt(pts, tour)
		orOpt(pts, tour)
		if tour.Validate(n) != nil {
			return false
		}
		return tour.Length(pts) <= before+1e-9
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCollinearPoints(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0), geom.Pt(4, 0)}
	for _, c := range constructions() {
		name, build := c.name, c.build
		tour := build(pts)
		if err := tour.Validate(5); err != nil {
			t.Fatalf("%s collinear: %v", name, err)
		}
		// Optimal is out-and-back: length 8.
		twoOpt(pts, tour)
		if got := tour.Length(pts); got < 8-1e-9 {
			t.Fatalf("%s collinear length %v below the possible minimum 8", name, got)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(1, 1), geom.Pt(5, 5), geom.Pt(1, 1), geom.Pt(9, 2)}
	for _, c := range constructions() {
		name, build := c.name, c.build
		tour := build(pts)
		if err := tour.Validate(5); err != nil {
			t.Fatalf("%s duplicates: %v", name, err)
		}
	}
}

func BenchmarkSolve200(b *testing.B) {
	pts := randPts(rng.New(1), 200, 300)
	opts := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(pts, opts)
	}
}

func BenchmarkTwoOpt500(b *testing.B) {
	pts := randPts(rng.New(2), 500, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tour := NearestNeighbor(pts, 0)
		b.StartTimer()
		twoOpt(pts, tour)
	}
}

func BenchmarkHeldKarp12(b *testing.B) {
	pts := randPts(rng.New(3), 12, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HeldKarp(pts); err != nil {
			b.Fatal(err)
		}
	}
}
