package shdgp

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"testing"

	"mobicol/internal/bitset"
	"mobicol/internal/cover"
	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/obs/analyze"
	"mobicol/internal/tsp"
	"mobicol/internal/wsn"
)

func deploy(n int, side, r float64, seed uint64) *Problem {
	return NewProblem(wsn.MustDeploy(wsn.Config{N: n, FieldSide: side, Range: r, Seed: seed}))
}

func TestPlanProducesValidSolution(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		p := deploy(150, 200, 30, seed)
		sol, err := Plan(context.Background(), p, DefaultPlannerOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sol.Validate(p); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sol.Stops() == 0 || sol.Length <= 0 {
			t.Fatalf("seed %d: degenerate solution %d stops %.1fm", seed, sol.Stops(), sol.Length)
		}
	}
}

func TestPlanCoversEverySensorSingleHop(t *testing.T) {
	p := deploy(200, 250, 30, 3)
	sol, err := Plan(context.Background(), p, DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	sensors := p.Net.Positions()
	for i, stop := range sol.Plan.UploadAt {
		if stop < 0 {
			t.Fatalf("sensor %d unserved", i)
		}
		if d := sensors[i].Dist(sol.Plan.Stops[stop]); d > p.Net.Range+1e-9 {
			t.Fatalf("sensor %d uploads over %.2fm, range %.2fm", i, d, p.Net.Range)
		}
	}
}

func TestPlanHandlesDisconnectedNetworks(t *testing.T) {
	// Clustered sparse deployment: multi-hop to a static sink would strand
	// sensors, but the SHDGP plan must still serve all of them.
	nw := wsn.MustDeploy(wsn.Config{N: 80, FieldSide: 500, Range: 25, Placement: wsn.Clustered, Clusters: 4, Seed: 7})
	p := NewProblem(nw)
	sol, err := Plan(context.Background(), p, DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(p); err != nil {
		t.Fatal(err)
	}
	if sol.Plan.Served() != nw.N() {
		t.Fatalf("served %d of %d sensors", sol.Plan.Served(), nw.N())
	}
}

func TestRefinementNeverHurts(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		p := deploy(120, 200, 30, seed)
		raw, err := Plan(context.Background(), p, PlannerOptions{TSP: tsp.DefaultOptions(), Refine: false})
		if err != nil {
			t.Fatal(err)
		}
		refined, err := Plan(context.Background(), p, DefaultPlannerOptions())
		if err != nil {
			t.Fatal(err)
		}
		// Refinement is heuristic; allow a tiny tolerance but catch
		// systematic regressions.
		if refined.Length > raw.Length*1.02+1e-9 {
			t.Fatalf("seed %d: refinement worsened tour %.1f -> %.1f", seed, raw.Length, refined.Length)
		}
	}
}

func TestPlanShorterThanVisitAll(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		p := deploy(200, 200, 30, seed)
		sol, err := Plan(context.Background(), p, DefaultPlannerOptions())
		if err != nil {
			t.Fatal(err)
		}
		all, err := PlanVisitAll(p, tsp.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := all.Validate(p); err != nil {
			t.Fatal(err)
		}
		if sol.Length >= all.Length {
			t.Fatalf("seed %d: covering tour %.1f not shorter than visit-all %.1f", seed, sol.Length, all.Length)
		}
	}
}

func TestPlanGridStrategyFeasible(t *testing.T) {
	p := deploy(100, 200, 30, 11)
	p.Strategy = cover.FieldGrid
	p.GridSpacing = 20
	sol, err := Plan(context.Background(), p, DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestPlanIntersectionStrategyAtLeastAsShort(t *testing.T) {
	// Denser candidate sets should on average shorten tours; require it
	// not to be dramatically worse on a fixed seed.
	p := deploy(80, 150, 30, 13)
	sites, err := Plan(context.Background(), p, DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	p2 := deploy(80, 150, 30, 13)
	p2.Strategy = cover.Intersections
	inter, err := Plan(context.Background(), p2, DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	if inter.Length > sites.Length*1.15 {
		t.Fatalf("intersection candidates %.1f much worse than sites %.1f", inter.Length, sites.Length)
	}
}

func TestSingleSensorNetwork(t *testing.T) {
	nw := wsn.New([]geom.Point{geom.Pt(80, 50)}, geom.Pt(50, 50), 20, geom.Square(100))
	p := NewProblem(nw)
	sol, err := Plan(context.Background(), p, DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stops() != 1 {
		t.Fatalf("stops = %d", sol.Stops())
	}
	// Out to the sensor and back: 2 * 30 (stop at the sensor site).
	if math.Abs(float64(sol.Length)-60) > 1e-6 {
		t.Fatalf("length = %v, want 60", sol.Length)
	}
	if err := sol.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestPlanExactSmallInstances(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		p := deploy(15, 80, 25, seed)
		ex, err := PlanExact(context.Background(), p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !ex.Exact {
			t.Fatalf("seed %d: tiny instance not solved exactly", seed)
		}
		if err := ex.Validate(p); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		heur, err := Plan(context.Background(), p, DefaultPlannerOptions())
		if err != nil {
			t.Fatal(err)
		}
		if ex.Length > heur.Length+1e-6 {
			t.Fatalf("seed %d: exact %.3f worse than heuristic %.3f", seed, ex.Length, heur.Length)
		}
	}
}

func TestPlanExactBeatsOrMatchesVisitAll(t *testing.T) {
	p := deploy(12, 70, 25, 21)
	ex, err := PlanExact(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	all, err := PlanVisitAll(p, tsp.Options{Construction: tsp.ConstructGreedy, TwoOpt: true, OrOpt: true, ExactBelow: tsp.HeldKarpMax})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Length > all.Length+1e-6 {
		t.Fatalf("exact %.3f worse than visit-all %.3f", ex.Length, all.Length)
	}
}

func TestPlanExactRejectsHugeInstances(t *testing.T) {
	p := deploy(300, 300, 25, 1)
	if _, err := PlanExact(context.Background(), p); err == nil {
		t.Fatal("oversized exact instance accepted")
	}
}

func TestMinStopsILPMatchesExactCover(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		p := deploy(14, 80, 25, seed)
		inst, err := p.Instance()
		if err != nil {
			t.Fatal(err)
		}
		pruned, _ := inst.Prune()
		want := minCoverSize(pruned)
		ilp, ilpExact, err := MinStopsILP(p)
		if err != nil {
			t.Fatal(err)
		}
		if !ilpExact {
			t.Fatal("ILP capped on tiny instance")
		}
		if ilp != want {
			t.Fatalf("seed %d: ILP min stops %d != brute-force minimum %d", seed, ilp, want)
		}
	}
}

// minCoverSize is the brute-force minimum number of candidates whose
// covers together hold every sensor: it tries every subset, smallest
// first. It returns -1 when even all candidates leave a sensor out.
func minCoverSize(inst *cover.Instance) int {
	covers := inst.CoverSets()
	var try func(start, left int, got *bitset.Set) bool
	try = func(start, left int, got *bitset.Set) bool {
		if got.Count() == inst.Universe {
			return true
		}
		for c := start; left > 0 && c < len(covers); c++ {
			next := got.Clone()
			next.Or(covers[c])
			if try(c+1, left-1, next) {
				return true
			}
		}
		return false
	}
	for k := 0; k <= len(covers); k++ {
		if try(0, k, bitset.New(inst.Universe)) {
			return k
		}
	}
	return -1
}

func TestInfeasibleWhenNoCandidates(t *testing.T) {
	// A network with sensors but a candidate strategy that yields no
	// feasible cover can't happen with sensor sites; simulate by an empty
	// network instead and expect a planner error from PlanVisitAll.
	nw := wsn.New(nil, geom.Pt(0, 0), 10, geom.Square(10))
	if _, err := PlanVisitAll(NewProblem(nw), tsp.DefaultOptions()); err == nil {
		t.Fatal("empty network accepted by visit-all")
	}
}

func BenchmarkPlan200(b *testing.B) {
	p := deploy(200, 200, 30, 1)
	opts := DefaultPlannerOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(context.Background(), p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanExact15(b *testing.B) {
	p := deploy(15, 80, 25, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanExact(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlanExactNotExactPastStopLimit: a network that needs more stops
// than the enumeration considers cannot be certified, so PlanExact must
// not report its plan as exact.
func TestPlanExactNotExactPastStopLimit(t *testing.T) {
	p := deploy(20, 200, 0.5, 1)
	sol, err := PlanExact(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stops() <= exactMaxStops {
		t.Fatalf("instance needs %d stops; the test wants more than %d", sol.Stops(), exactMaxStops)
	}
	if sol.Exact {
		t.Fatal("a search cut at the stop limit reported an exact plan")
	}
	if err := sol.Validate(p); err != nil {
		t.Fatal(err)
	}
}

// TestPlanBuildsOneTour: an shdg plan constructs one tour, in its tour
// phase; refine edits that tour and the tsp phase only improves it. The
// trace therefore holds one construct span, and the tour_m the tour,
// refine and tsp spans record never grows from one to the next (up to
// rounding); the tsp span's is the plan's length.
func TestPlanBuildsOneTour(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		p := deploy(400, 300, 30, seed)
		var buf bytes.Buffer
		tr := obs.New(&buf)
		opts := DefaultPlannerOptions()
		opts.Obs = tr
		sol, err := Plan(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		parsed, err := analyze.Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		constructs := 0
		tourM := map[string]float64{}
		for _, sp := range parsed.Spans {
			if sp.Name == "construct" {
				constructs++
			}
			for _, f := range sp.Fields {
				if f.Key == "tour_m" {
					if tourM[sp.Name], err = strconv.ParseFloat(f.Value, 64); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if constructs != 1 {
			t.Fatalf("seed %d: %d construct spans, want 1", seed, constructs)
		}
		if len(tourM) != 3 {
			t.Fatalf("seed %d: tour_m on spans %v, want tour, refine and tsp", seed, tourM)
		}
		if tourM["refine"] > tourM["tour"]*(1+1e-12) || tourM["tsp"] > tourM["refine"]*(1+1e-12) {
			t.Fatalf("seed %d: tour_m grew: tour %v, refine %v, tsp %v", seed, tourM["tour"], tourM["refine"], tourM["tsp"])
		}
		if tourM["tsp"] != float64(sol.Length) {
			t.Fatalf("seed %d: tsp tour_m %v, plan length %v", seed, tourM["tsp"], sol.Length)
		}
	}
}

// TestPlanEveryStopServes pins refine's end state: every stop of a
// default Plan covers a sensor that no other stop covers, so it serves
// at least one. On each of these fields a relocation in refine's last
// pass used to leave an earlier stop redundant; the seed-1 n=10k field
// kept a stop on another stop's position that served no sensor.
func TestPlanEveryStopServes(t *testing.T) {
	side := 200 * math.Sqrt2
	fields := []struct {
		name     string
		cfg      wsn.Config
		strategy cover.CandidateStrategy
	}{
		{"uniform-200/seed2", wsn.Config{N: 200, FieldSide: side, Range: 30, Seed: 2}, cover.Intersections},
		{"clustered-200/seed6", wsn.Config{N: 200, FieldSide: side, Range: 30, Placement: wsn.Clustered, Seed: 6}, cover.FieldGrid},
		{"clustered-200/seed10", wsn.Config{N: 200, FieldSide: side, Range: 30, Placement: wsn.Clustered, Seed: 10}, cover.FieldGrid},
		{"uniform-400/seed2", wsn.Config{N: 400, FieldSide: 400, Range: 30, Seed: 2}, cover.FieldGrid},
		{"uniform-10k/seed1", wsn.Config{N: 10000, FieldSide: 2000, Range: 30, Seed: 1}, cover.SensorSites},
	}
	for _, f := range fields {
		nw := wsn.MustDeploy(f.cfg)
		sol, err := Plan(context.Background(), &Problem{Net: nw, Strategy: f.strategy}, DefaultPlannerOptions())
		if err != nil {
			t.Fatalf("%s/%v: %v", f.name, f.strategy, err)
		}
		stops := sol.Plan.Stops
		grid := geom.NewGridIndexFor(stops, nw.Range)
		bound := nw.Range*nw.Range + geom.Eps
		sole := make([]int, len(stops)) // sensors only stop j covers
		var near, hits []int
		for _, node := range nw.Nodes {
			near, hits = grid.Within(node.Pos, nw.Range+1, near[:0]), hits[:0]
			for _, j := range near {
				if node.Pos.Dist2(stops[j]) <= bound {
					hits = append(hits, j)
				}
			}
			if len(hits) == 1 {
				sole[hits[0]]++
			}
		}
		served := sol.Plan.SensorsAt()
		for j := range stops {
			if sole[j] == 0 || served[j] == 0 {
				t.Errorf("%s/%v: stop %d at %v covers %d sensors alone and serves %d",
					f.name, f.strategy, j, stops[j], sole[j], served[j])
			}
		}
	}
}
