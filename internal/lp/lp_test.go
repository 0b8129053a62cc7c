package lp

import (
	"math"
	"testing"

	"mobicol/internal/bitset"
	"mobicol/internal/rng"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(b)) }

// Classic textbook LP:
//
//	maximise 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18
//
// Optimum (2, 6) with value 36. We minimise the negation.
func TestSimplexTextbook(t *testing.T) {
	m := NewModel(2)
	m.SetObjective(0, -3)
	m.SetObjective(1, -5)
	m.AddConstraint([]float64{1, 0}, LE, 4)
	m.AddConstraint([]float64{0, 2}, LE, 12)
	m.AddConstraint([]float64{3, 2}, LE, 18)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if !almost(sol.Obj, -36) || !almost(sol.X[0], 2) || !almost(sol.X[1], 6) {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestSimplexEqualityAndGE(t *testing.T) {
	// minimise x + 2y  s.t.  x + y = 10, x >= 3, y >= 2.
	// Optimum: x=8, y=2, obj=12.
	m := NewModel(2)
	m.SetObjective(0, 1)
	m.SetObjective(1, 2)
	m.AddConstraint([]float64{1, 1}, EQ, 10)
	m.AddConstraint([]float64{1, 0}, GE, 3)
	m.AddConstraint([]float64{0, 1}, GE, 2)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !almost(sol.Obj, 12) {
		t.Fatalf("sol = %+v", sol)
	}
	if !almost(sol.X[0], 8) || !almost(sol.X[1], 2) {
		t.Fatalf("X = %v", sol.X)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	m := NewModel(1)
	m.AddConstraint([]float64{1}, GE, 5)
	m.AddConstraint([]float64{1}, LE, 3)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	m := NewModel(1)
	m.SetObjective(0, -1) // minimise -x with x free above
	m.AddConstraint([]float64{1}, GE, 0)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSimplexNegativeRHS(t *testing.T) {
	// minimise x  s.t.  -x <= -5  (i.e. x >= 5).
	m := NewModel(1)
	m.SetObjective(0, 1)
	m.AddConstraint([]float64{-1}, LE, -5)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !almost(sol.X[0], 5) {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestSimplexRedundantRows(t *testing.T) {
	// x + y = 4 twice; minimise x. Optimum x=0, y=4.
	m := NewModel(2)
	m.SetObjective(0, 1)
	m.AddConstraint([]float64{1, 1}, EQ, 4)
	m.AddConstraint([]float64{1, 1}, EQ, 4)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !almost(sol.Obj, 0) || !almost(sol.X[1], 4) {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestSimplexDegenerate(t *testing.T) {
	// A degenerate vertex: several constraints meet at the optimum.
	m := NewModel(2)
	m.SetObjective(0, -1)
	m.SetObjective(1, -1)
	m.AddConstraint([]float64{1, 0}, LE, 1)
	m.AddConstraint([]float64{0, 1}, LE, 1)
	m.AddConstraint([]float64{1, 1}, LE, 2)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !almost(sol.Obj, -2) {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestConstraintSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched constraint did not panic")
		}
	}()
	NewModel(2).AddConstraint([]float64{1}, LE, 1)
}

func TestBinaryKnapsackStyle(t *testing.T) {
	// maximise 5a + 4b + 3c  s.t.  2a + 3b + c <= 5, binary.
	// Optimum: a=1, b=0, c=1 -> 8 ... check: a=1,b=1 uses 5, value 9!
	// 2+3=5 <= 5, so a=1,b=1,c=0 gives 9. With c: 2+3+1=6 > 5.
	m := NewModel(3)
	m.SetObjective(0, -5)
	m.SetObjective(1, -4)
	m.SetObjective(2, -3)
	m.AddConstraint([]float64{2, 3, 1}, LE, 5)
	sol, err := m.SolveBinary(0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !sol.Exact {
		t.Fatalf("sol = %+v", sol)
	}
	if !almost(sol.Obj, -9) {
		t.Fatalf("obj = %v, want -9 (x=%v)", sol.Obj, sol.X)
	}
}

func TestBinaryInfeasible(t *testing.T) {
	m := NewModel(2)
	m.AddConstraint([]float64{1, 1}, GE, 3) // impossible with binaries
	sol, err := m.SolveBinary(0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v", sol.Status)
	}
}

func TestSetCoverModelMatchesBruteForce(t *testing.T) {
	s := rng.New(80)
	for trial := 0; trial < 20; trial++ {
		universe := 4 + s.Intn(6)
		nc := 3 + s.Intn(6)
		covers := make([]*bitset.Set, nc)
		for c := range covers {
			covers[c] = bitset.New(universe)
			for e := 0; e < universe; e++ {
				if s.Bool(0.4) {
					covers[c].Add(e)
				}
			}
		}
		m := SetCoverModel(universe, covers)
		sol, err := m.SolveBinary(0)
		if err != nil {
			t.Fatal(err)
		}
		want, feasible := bruteMinCover(universe, covers)
		if !feasible {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: ILP says %v, brute force says infeasible", trial, sol.Status)
			}
			continue
		}
		if sol.Status != Optimal || !sol.Exact {
			t.Fatalf("trial %d: sol = %+v, want optimal size %d", trial, sol, want)
		}
		if got := int(math.Round(sol.Obj)); got != want {
			t.Fatalf("trial %d: ILP cover size %d, brute force %d", trial, got, want)
		}
	}
}

// bruteMinCover enumerates all candidate subsets.
func bruteMinCover(universe int, covers []*bitset.Set) (int, bool) {
	nc := len(covers)
	best := -1
	for mask := 0; mask < 1<<uint(nc); mask++ {
		u := bitset.New(universe)
		size := 0
		for c := 0; c < nc; c++ {
			if mask&(1<<uint(c)) != 0 {
				u.Or(covers[c])
				size++
			}
		}
		if u.Count() == universe && (best < 0 || size < best) {
			best = size
		}
	}
	return best, best >= 0
}

func TestBinaryNodeCap(t *testing.T) {
	s := rng.New(82)
	universe, nc := 20, 30
	covers := make([]*bitset.Set, nc)
	for c := range covers {
		covers[c] = bitset.New(universe)
		for e := 0; e < universe; e++ {
			if s.Bool(0.25) {
				covers[c].Add(e)
			}
		}
		covers[c].Add(c % universe) // ensure feasibility
	}
	m := SetCoverModel(universe, covers)
	sol, err := m.SolveBinary(3)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Exact && sol.Status == Optimal {
		// With only 3 nodes the tree cannot close on 30 variables unless
		// the relaxation was already integral — accept that rare case.
		t.Log("relaxation happened to be integral")
	}
}

func BenchmarkSetCoverILP(b *testing.B) {
	s := rng.New(1)
	universe, nc := 15, 20
	covers := make([]*bitset.Set, nc)
	for c := range covers {
		covers[c] = bitset.New(universe)
		for e := 0; e < universe; e++ {
			if s.Bool(0.3) {
				covers[c].Add(e)
			}
		}
		covers[c].Add(c % universe)
	}
	m := SetCoverModel(universe, covers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SolveBinary(0); err != nil {
			b.Fatal(err)
		}
	}
}
