package tsp

import (
	"math"
	"testing"

	"mobicol/internal/geom"
	"mobicol/internal/rng"
)

// MatrixLength returns the closed tour length under the matrix metric:
// the reference the matrix solver's tours are measured with.
func MatrixLength(d [][]float64, tour Tour) float64 {
	if len(tour) < 2 {
		return 0
	}
	total := 0.0
	for i := range tour {
		total += d[tour[i]][tour[(i+1)%len(tour)]]
	}
	return total
}

// euclidMatrix builds the distance matrix of pts.
func euclidMatrix(pts []geom.Point) [][]float64 {
	n := len(pts)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = pts[i].Dist(pts[j])
		}
	}
	return m
}

func TestSolveMatrixMatchesEuclideanQuality(t *testing.T) {
	s := rng.New(70)
	for trial := 0; trial < 10; trial++ {
		pts := randPts(s, 6+s.Intn(8), 100)
		m := euclidMatrix(pts)
		tour, err := SolveMatrix(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := tour.Validate(len(pts)); err != nil {
			t.Fatal(err)
		}
		opt, err := HeldKarp(pts)
		if err != nil {
			t.Fatal(err)
		}
		got := MatrixLength(m, tour)
		want := float64(opt.Length(pts))
		if got < want-1e-9 {
			t.Fatalf("matrix tour %v beat the optimum %v: impossible", got, want)
		}
		if got > want*1.15 {
			t.Fatalf("matrix tour %v more than 15%% above optimum %v", got, want)
		}
	}
}

func TestSolveMatrixAgreesWithTourLength(t *testing.T) {
	s := rng.New(71)
	pts := randPts(s, 30, 150)
	m := euclidMatrix(pts)
	tour, err := SolveMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(MatrixLength(m, tour)-float64(tour.Length(pts))) > 1e-9 {
		t.Fatal("MatrixLength disagrees with Euclidean Length on a Euclidean matrix")
	}
}

func TestSolveMatrixNonEuclidean(t *testing.T) {
	// A metric the planner actually uses: shortest-path detours make some
	// pairs "farther" than their straight line. 4 points on a line with
	// an inflated middle edge.
	m := [][]float64{
		{0, 1, 10, 11},
		{1, 0, 9, 10},
		{10, 9, 0, 1},
		{11, 10, 1, 0},
	}
	tour, err := SolveMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := tour.Validate(4); err != nil {
		t.Fatal(err)
	}
	// Optimal closed tour: 0-1-2-3-0 = 1+9+1+11 = 22.
	if got := MatrixLength(m, tour); math.Abs(got-22) > 1e-9 {
		t.Fatalf("length %v, want 22", got)
	}
}

func TestSolveMatrixDegenerate(t *testing.T) {
	for n := 0; n <= 3; n++ {
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
		}
		tour, err := SolveMatrix(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(tour) != n {
			t.Fatalf("n=%d: tour %v", n, tour)
		}
	}
}

func TestSolveMatrixRejectsRagged(t *testing.T) {
	if _, err := SolveMatrix([][]float64{{0, 1}, {1}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestSolveMatrixUnreachablePairs(t *testing.T) {
	inf := math.Inf(1)
	m := [][]float64{
		{0, 1, inf, inf},
		{1, 0, inf, inf},
		{inf, inf, 0, 1},
		{inf, inf, 1, 0},
	}
	tour, err := SolveMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := tour.Validate(4); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(MatrixLength(m, tour), 1) {
		t.Fatal("disconnected metric should yield infinite tour length")
	}
}

func TestMatrixLengthDegenerate(t *testing.T) {
	if MatrixLength(nil, Tour{}) != 0 {
		t.Fatal("empty matrix length")
	}
	if MatrixLength([][]float64{{0}}, Tour{0}) != 0 {
		t.Fatal("singleton matrix length")
	}
}

func TestConstructionString(t *testing.T) {
	names := []struct {
		c    Construction
		want string
	}{
		{ConstructNN, "nearest-neighbor"},
		{ConstructGreedy, "greedy-edge"},
		{ConstructChristofides, "christofides"},
		{Construction(99), "Construction(99)"},
	}
	for _, tc := range names {
		c, want := tc.c, tc.want
		if c.String() != want {
			t.Fatalf("%d.String() = %q", int(c), c.String())
		}
	}
}
