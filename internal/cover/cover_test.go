package cover

import (
	"testing"
	"testing/quick"

	"mobicol/internal/bitset"
	"mobicol/internal/geom"
	"mobicol/internal/rng"
)

func randSensors(s *rng.Source, n int, l float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(s.Uniform(0, l), s.Uniform(0, l))
	}
	return pts
}

func mustCandidates(t *testing.T, sensors []geom.Point, field geom.Rect, r float64, strategy CandidateStrategy, gridSpacing float64) []geom.Point {
	t.Helper()
	cands, err := GenerateCandidates(sensors, field, r, strategy, gridSpacing)
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

func TestGenerateCandidatesUnknownStrategy(t *testing.T) {
	if _, err := GenerateCandidates(nil, geom.Square(10), 5, CandidateStrategy(99), 0); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestNewInstanceRadiiRejectsBadInput(t *testing.T) {
	sensors := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 10)}
	if err := NewInstanceRadii(sensors, []float64{5}, sensors).Err(); err == nil {
		t.Fatal("mismatched radii accepted")
	}
	in := NewInstanceRadii(sensors, []float64{5, -1}, sensors)
	if err := in.Err(); err == nil {
		t.Fatal("negative radius accepted")
	}
	if _, err := in.Greedy(geom.Pt(0, 0)); err == nil {
		t.Fatal("greedy ran on an invalid instance")
	}
	if pruned, _ := in.Prune(); pruned.Err() == nil {
		t.Fatal("pruning dropped the construction error")
	}
}

func TestNewInstanceDropsUselessCandidates(t *testing.T) {
	sensors := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 10)}
	cands := []geom.Point{geom.Pt(0, 0), geom.Pt(500, 500)}
	in := NewInstance(sensors, cands, 5)
	if len(in.Candidates) != 1 {
		t.Fatalf("kept %d candidates, want 1", len(in.Candidates))
	}
}

func TestFeasibility(t *testing.T) {
	sensors := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 100)}
	in := NewInstance(sensors, []geom.Point{geom.Pt(0, 0)}, 5)
	if in.Err() == nil {
		t.Fatal("Err nil on infeasible instance")
	}
	in2 := NewInstance(sensors, sensors, 5)
	if in2.Err() != nil {
		t.Fatal("feasible instance rejected")
	}
}

// isCover reports whether the chosen candidates cover every sensor.
func isCover(in *Instance, chosen []int) bool {
	u := bitset.New(in.Universe)
	for _, c := range chosen {
		for _, s := range in.Cover(c) {
			u.Add(int(s))
		}
	}
	return u.Count() == in.Universe
}

func TestGreedyCoversEverything(t *testing.T) {
	s := rng.New(70)
	for trial := 0; trial < 20; trial++ {
		sensors := randSensors(s, 30+s.Intn(100), 200)
		in := NewInstance(sensors, sensors, 30)
		chosen, err := in.Greedy(geom.Pt(100, 100))
		if err != nil {
			t.Fatal(err)
		}
		if !isCover(in, chosen) {
			t.Fatal("greedy result is not a cover")
		}
		// No chosen candidate should be fully redundant at selection time:
		// picking it must have covered at least one new sensor, so the
		// cover has at most Universe stops.
		if len(chosen) > in.Universe {
			t.Fatalf("greedy chose %d stops for %d sensors", len(chosen), in.Universe)
		}
	}
}

func TestGreedySingleStopWhenOneCandidateCoversAll(t *testing.T) {
	sensors := []geom.Point{geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(-1, 0)}
	cands := append([]geom.Point{geom.Pt(0, 0)}, sensors...)
	in := NewInstance(sensors, cands, 2)
	chosen, err := in.Greedy(geom.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 1 || !in.Candidates[chosen[0]].Eq(geom.Pt(0, 0)) {
		t.Fatalf("chosen = %v", chosen)
	}
}

func TestGreedyTieBreakTowardSink(t *testing.T) {
	// Two candidates each covering exactly one (different) sensor would
	// both be chosen; but when two candidates cover the SAME single
	// sensor, the one nearer the sink must win.
	sensors := []geom.Point{geom.Pt(50, 50)}
	cands := []geom.Point{geom.Pt(50, 58), geom.Pt(50, 44)} // both within r=10
	in := NewInstance(sensors, cands, 10)
	chosen, err := in.Greedy(geom.Pt(50, 40)) // sink south: candidate 1 closer
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 1 || chosen[0] != 1 {
		t.Fatalf("tie break failed: chosen = %v", chosen)
	}
}

func TestAssignNearestStop(t *testing.T) {
	sensors := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(4, 0)}
	cands := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
	in := NewInstance(sensors, cands, 6)
	chosen := []int{0, 1}
	a := in.Assign(sensors, chosen)
	if a[0] != 0 || a[1] != 1 || a[2] != 0 {
		t.Fatalf("Assign = %v", a)
	}
}

func TestAssignUncoveredIsMinusOne(t *testing.T) {
	sensors := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)}
	in := NewInstance(sensors, sensors, 5)
	a := in.Assign(sensors, []int{0})
	if a[0] != 0 || a[1] != -1 {
		t.Fatalf("Assign = %v", a)
	}
}

func TestPruneRemovesDominated(t *testing.T) {
	// Candidate at centre covers both sensors; each sensor site covers
	// only itself -> both sites dominated.
	sensors := []geom.Point{geom.Pt(0, 0), geom.Pt(8, 0)}
	cands := []geom.Point{geom.Pt(0, 0), geom.Pt(8, 0), geom.Pt(4, 0)}
	in := NewInstance(sensors, cands, 5)
	pruned, orig := in.Prune()
	if pruned.NumCandidates() != 1 {
		t.Fatalf("pruned to %d candidates, want 1", pruned.NumCandidates())
	}
	if !in.Candidates[orig[0]].Eq(geom.Pt(4, 0)) {
		t.Fatalf("kept wrong candidate %v", in.Candidates[orig[0]])
	}
}

func TestPruneKeepsOneOfEquals(t *testing.T) {
	sensors := []geom.Point{geom.Pt(0, 0)}
	cands := []geom.Point{geom.Pt(1, 0), geom.Pt(-1, 0)}
	in := NewInstance(sensors, cands, 5)
	pruned, _ := in.Prune()
	if pruned.NumCandidates() != 1 {
		t.Fatalf("equal covers pruned to %d, want 1", pruned.NumCandidates())
	}
}

// TestCoverersTransposeCovers checks the sensor → candidate transpose
// against the cover lists: Coverers(s) is every candidate whose cover
// holds s, ascending, on the full and the pruned instance alike.
func TestCoverersTransposeCovers(t *testing.T) {
	s := rng.New(29)
	sensors := randSensors(s, 120, 150)
	field := geom.Square(150)
	full := NewInstance(sensors, mustCandidates(t, sensors, field, 25, FieldGrid, 20), 25)
	pruned, _ := full.Prune()
	for _, in := range []*Instance{full, pruned} {
		want := make([][]int32, in.Universe)
		for c := 0; c < in.NumCandidates(); c++ {
			for _, sv := range in.Cover(c) {
				want[sv] = append(want[sv], int32(c))
			}
		}
		for sv := range want {
			got := in.Coverers(sv)
			if len(got) != len(want[sv]) {
				t.Fatalf("sensor %d: Coverers = %v, want %v", sv, got, want[sv])
			}
			for i := range got {
				if got[i] != want[sv][i] {
					t.Fatalf("sensor %d: Coverers = %v, want %v", sv, got, want[sv])
				}
			}
		}
	}
}

func TestGenerateCandidatesStrategies(t *testing.T) {
	s := rng.New(73)
	sensors := randSensors(s, 40, 100)
	field := geom.Square(100)
	sites := mustCandidates(t, sensors, field, 20, SensorSites, 0)
	if len(sites) != 40 {
		t.Fatalf("SensorSites produced %d", len(sites))
	}
	grid := mustCandidates(t, sensors, field, 20, FieldGrid, 20)
	if len(grid) != 36+40 { // 6x6 lattice + sensor sites
		t.Fatalf("FieldGrid produced %d", len(grid))
	}
	inter := mustCandidates(t, sensors, field, 20, Intersections, 0)
	if len(inter) < 40 {
		t.Fatalf("Intersections produced %d", len(inter))
	}
	// All strategies must yield feasible instances (sensor sites are
	// always included or are the base set).
	for _, cands := range [][]geom.Point{sites, grid, inter} {
		if NewInstance(sensors, cands, 20).Err() != nil {
			t.Fatal("candidate strategy produced infeasible instance")
		}
	}
}

// Property: greedy always returns a valid cover whose every stop covers at
// least one sensor assigned to it by Assign.
func TestQuickGreedyCoverValid(t *testing.T) {
	s := rng.New(74)
	f := func() bool {
		sensors := randSensors(s, 5+s.Intn(60), 150)
		in := NewInstance(sensors, sensors, 25)
		chosen, err := in.Greedy(geom.Pt(75, 75))
		if err != nil {
			return false
		}
		if !isCover(in, chosen) {
			return false
		}
		a := in.Assign(sensors, chosen)
		for i, pos := range a {
			if pos < 0 {
				return false
			}
			if sensors[i].Dist(in.Candidates[chosen[pos]]) > 25+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGreedy300(b *testing.B) {
	sensors := randSensors(rng.New(1), 300, 300)
	in := NewInstance(sensors, sensors, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Greedy(geom.Pt(150, 150)); err != nil {
			b.Fatal(err)
		}
	}
}
