package mobicol

// One benchmark per experiment table/figure, as required by the
// reproduction harness: `go test -bench=.` regenerates every table at
// reduced trial counts through exactly the code paths cmd/mdgbench uses at
// paper scale. Each benchmark reports the headline metric of its table as
// a custom unit so shapes are visible straight from the bench output.

import (
	"context"
	"io"
	"strconv"
	"strings"
	"testing"

	"mobicol/internal/bench"
	"mobicol/internal/cover"
	"mobicol/internal/engine"
	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/replan"
	"mobicol/internal/tsp"
)

func runExperiment(b *testing.B, id string, metricRow, metricCol int, unit string) {
	run, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := bench.Config{Trials: 3, Seed: 1, Quick: true}
	var last float64
	for i := 0; i < b.N; i++ {
		tbl, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cell := tbl.Rows[metricRow][metricCol]
		cell = strings.TrimSuffix(strings.TrimSuffix(cell, "%"), "x")
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			b.Fatalf("%s metric cell %q: %v", id, tbl.Rows[metricRow][metricCol], err)
		}
		last = v
	}
	b.ReportMetric(last, unit)
}

// BenchmarkE1OptimalGap regenerates E1 (small-network optimal comparison);
// reports the heuristic's mean tour length on the largest row.
func BenchmarkE1OptimalGap(b *testing.B) { runExperiment(b, "E1", 1, 2, "m_tour") }

// BenchmarkE2TourVsN regenerates E2 (tour length vs N); reports SHDG's
// tour length at the densest point.
func BenchmarkE2TourVsN(b *testing.B) { runExperiment(b, "E2", 1, 1, "m_tour") }

// BenchmarkE3TourVsRange regenerates E3 (tour length vs range).
func BenchmarkE3TourVsRange(b *testing.B) { runExperiment(b, "E3", 2, 1, "m_tour") }

// BenchmarkE4TourVsField regenerates E4 (tour length vs field side).
func BenchmarkE4TourVsField(b *testing.B) { runExperiment(b, "E4", 1, 1, "m_tour") }

// BenchmarkE5MultiCollector regenerates E5 (multi-collector splitting);
// reports the max sub-tour length of the last row.
func BenchmarkE5MultiCollector(b *testing.B) { runExperiment(b, "E5", 3, 3, "m_maxsub") }

// BenchmarkE6Lifetime regenerates E6 (network lifetime); reports the
// mobile scheme's lifetime in rounds at the densest point.
func BenchmarkE6Lifetime(b *testing.B) { runExperiment(b, "E6", 1, 1, "rounds") }

// BenchmarkE7Latency regenerates E7 (collection latency); reports the
// mobile scheme's round time.
func BenchmarkE7Latency(b *testing.B) { runExperiment(b, "E7", 1, 1, "s_round") }

// BenchmarkE8Ablations regenerates E8 (planner ablations); reports the
// default variant's tour length.
func BenchmarkE8Ablations(b *testing.B) { runExperiment(b, "E8", 0, 1, "m_tour") }

// BenchmarkE9BufferCapacity regenerates E9 (buffer-capacity extension);
// reports the tightest capacity's tour length.
func BenchmarkE9BufferCapacity(b *testing.B) { runExperiment(b, "E9", 2, 1, "m_tour") }

// BenchmarkE10DESLatency regenerates E10 (closed-form vs discrete-event
// latency); reports the static sink's DES drain time at the densest point.
func BenchmarkE10DESLatency(b *testing.B) { runExperiment(b, "E10", 1, 2, "s_drain") }

// BenchmarkE11Obstacles regenerates E11 (obstacle-aware planning); reports
// the driven tour length on the obstructed row.
func BenchmarkE11Obstacles(b *testing.B) { runExperiment(b, "E11", 1, 1, "m_driven") }

// BenchmarkE12LossyLinks regenerates E12 (lossy links); reports the mobile
// scheme's lifetime under the mild model.
func BenchmarkE12LossyLinks(b *testing.B) { runExperiment(b, "E12", 1, 1, "rounds") }

// BenchmarkE13Scheduling regenerates E13 (visit scheduling); reports the
// EDF loss fraction at the highest sampled rate.
func BenchmarkE13Scheduling(b *testing.B) { runExperiment(b, "E13", 1, 4, "lossfrac") }

// BenchmarkE14Hetero regenerates E14 (heterogeneous ranges); reports the
// all-weak tour length.
func BenchmarkE14Hetero(b *testing.B) { runExperiment(b, "E14", 2, 1, "m_tour") }

// BenchmarkE15Adaptive regenerates E15 (degradation past first death);
// reports the mobile half-service life.
func BenchmarkE15Adaptive(b *testing.B) { runExperiment(b, "E15", 0, 2, "rounds") }

// BenchmarkPlannerOnly isolates the heuristic planner itself (no sweep):
// one 200-sensor plan per iteration.
func BenchmarkPlannerOnly(b *testing.B) {
	nw := MustDeploy(DeployConfig{N: 200, FieldSide: 200, Range: 30, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanTour(nw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE16Rotation regenerates E16 (plan rotation); reports the
// rotated lifetime on the multi-plan row.
func BenchmarkE16Rotation(b *testing.B) { runExperiment(b, "E16", 1, 1, "rounds") }

// BenchmarkE17Scale regenerates E17 (scale at paper density); reports the
// shdg tour length on the largest field (n = 1 000 at the quick size).
func BenchmarkE17Scale(b *testing.B) { runExperiment(b, "E17", 3, 2, "m_tour") }

// warmTSPScratch builds a 200-point instance, converges both local
// searches into the given scratch, and returns the shared state: after
// this, re-running either pass finds no improving move and — with the
// scratch buffers grown — must not allocate.
func warmTSPScratch(s *tsp.Scratch) (pts []geom.Point, tour tsp.Tour, nb *tsp.Neighbors) {
	nw := MustDeploy(DeployConfig{N: 200, FieldSide: 200, Range: 30, Seed: 1})
	pts = nw.Positions()
	nb = tsp.NewNeighbors(pts)
	tour = make(tsp.Tour, len(pts))
	for i := range tour {
		tour[i] = i
	}
	for s.TwoOpt(pts, tour, nb, nil)+s.OrOpt(pts, tour, nb, nil) > 0 {
	}
	return pts, tour, nb
}

// BenchmarkTwoOptSteadyState pins the 2-opt pass at allocs/op == 0: on a
// converged tour with a warmed scratch the pass is a pure scan.
func BenchmarkTwoOptSteadyState(b *testing.B) {
	var s tsp.Scratch
	pts, tour, nb := warmTSPScratch(&s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TwoOpt(pts, tour, nb, nil)
	}
}

// BenchmarkOrOptSteadyState pins the Or-opt pass at allocs/op == 0 under
// the same converged-tour, warmed-scratch regime.
func BenchmarkOrOptSteadyState(b *testing.B) {
	var s tsp.Scratch
	pts, tour, nb := warmTSPScratch(&s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.OrOpt(pts, tour, nb, nil)
	}
}

// gridQueries is one unit of steady-state grid-index work: a k-nearest
// query and a range query per point, into reused buffers, as the tsp
// neighbour lists, cover's instance build and refine run them.
type gridQueries struct {
	pts  []geom.Point
	idx  *geom.GridIndex
	nbr  []int
	d2   []float64
	hits []int
}

func newGridQueries() *gridQueries {
	nw := MustDeploy(DeployConfig{N: 2000, FieldSide: 900, Range: 30, Seed: 1}) // paper density
	pts := nw.Positions()
	g := &gridQueries{pts: pts, idx: geom.NewGridIndexAuto(pts, 1), nbr: make([]int, 12), d2: make([]float64, 12)}
	g.run()
	return g
}

func (g *gridQueries) run() {
	for i, p := range g.pts {
		g.idx.NearestK(p, i, g.nbr, g.d2)
		g.hits = g.idx.Within(p, 30, g.hits[:0])
	}
}

// BenchmarkGridIndexNearestKSteadyState pins the grid index's k-nearest
// and range queries at allocs/op == 0 once the hit buffer has grown.
func BenchmarkGridIndexNearestKSteadyState(b *testing.B) {
	g := newGridQueries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.run()
	}
}

// warmGreedy builds a covering instance and runs one selection so the
// scratch buffers and the instance's lazy feasibility memo are in their
// steady state.
func warmGreedy(tb testing.TB, s *cover.GreedyScratch) (*cover.Instance, geom.Point) {
	tb.Helper()
	nw := MustDeploy(DeployConfig{N: 200, FieldSide: 200, Range: 30, Seed: 1})
	pts := nw.Positions()
	inst := cover.NewInstance(pts, pts, nw.Range)
	if _, err := inst.GreedyInto(nw.Sink, nil, s); err != nil {
		tb.Fatal(err)
	}
	return inst, nw.Sink
}

// BenchmarkGreedySteadyState pins the CELF greedy selection at
// allocs/op == 0 once the scratch has grown to the instance size.
func BenchmarkGreedySteadyState(b *testing.B) {
	var s cover.GreedyScratch
	inst, sink := warmGreedy(b, &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.GreedyInto(sink, nil, &s); err != nil {
			b.Fatal(err)
		}
	}
}

// warmSpanTrace builds an enabled trace and runs a few full span round
// trips so the span free list, field slices, line buffer, and registry
// entries are all grown: after this, instrumenting a phase is free.
func warmSpanTrace() *obs.Trace {
	tr := obs.New(io.Discard)
	for i := 0; i < 8; i++ {
		spanRoundTrip(tr)
	}
	return tr
}

// spanRoundTrip is one representative unit of instrumentation work: a
// root span, a child span with typed fields, and metric updates — the
// shape every planner phase uses.
func spanRoundTrip(tr *obs.Trace) {
	root := tr.Start("bench.root")
	child := root.Child("bench.phase")
	child.SetInt("iters", 42)
	child.SetFloat("gain", 1.5)
	child.SetStr("algo", "shdg")
	child.Count("bench.calls", 1)
	child.Observe("bench.gain", 3)
	child.End()
	root.End()
}

// BenchmarkSpanSteadyState pins the obs span enter/exit path at
// allocs/op == 0: with the span pool, line buffer, and registry warmed,
// tracing a phase must not allocate.
func BenchmarkSpanSteadyState(b *testing.B) {
	tr := warmSpanTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spanRoundTrip(tr)
	}
}

// TestHotPathSteadyStateZeroAllocs enforces what the steady-state
// benchmarks report: the scratch-based hot passes must not allocate once
// their buffers have grown. A regression here means a heap allocation
// crept back into a planning inner loop.
func TestHotPathSteadyStateZeroAllocs(t *testing.T) {
	var ts tsp.Scratch
	pts, tour, nb := warmTSPScratch(&ts)
	if n := testing.AllocsPerRun(20, func() { ts.TwoOpt(pts, tour, nb, nil) }); n != 0 {
		t.Errorf("Scratch.TwoOpt steady state allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { ts.OrOpt(pts, tour, nb, nil) }); n != 0 {
		t.Errorf("Scratch.OrOpt steady state allocates %.1f objects/op, want 0", n)
	}

	var gs cover.GreedyScratch
	inst, sink := warmGreedy(t, &gs)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := inst.GreedyInto(sink, nil, &gs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Instance.GreedyInto steady state allocates %.1f objects/op, want 0", n)
	}

	g := newGridQueries()
	if n := testing.AllocsPerRun(5, g.run); n != 0 {
		t.Errorf("GridIndex.NearestK + Within steady state allocates %.1f objects/op, want 0", n)
	}

	tr := warmSpanTrace()
	if n := testing.AllocsPerRun(20, func() { spanRoundTrip(tr) }); n != 0 {
		t.Errorf("obs span round trip steady state allocates %.1f objects/op, want 0", n)
	}
}

// TestPlanAllocsCeiling caps the heap allocations of one plan of every
// registered planner at the count measured when its cap was set, so any
// allocation a plan executes, including a value the compiler moves to
// the heap, is pinned at run time. The covering heuristics and the
// baselines plan the seed-1 paper field (100 sensors, 200 m square,
// 30 m range); warm repairs that field's shdg plan after a 5 % delta;
// exact plans an E1-sized field (15 sensors, 70 m, 25 m), since on the
// paper field it runs to its node cap. The count does not depend on the
// host's speed or load, so a plan that allocates more has gained an
// allocation site; lower the cap when a change removes one. A planner
// registered without a cap fails.
func TestPlanAllocsCeiling(t *testing.T) {
	ctx := context.Background()
	paper := MustDeploy(DeployConfig{N: 100, FieldSide: 200, Range: 30, Seed: 1})
	shdg, err := engine.Select("shdg")
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := shdg.Plan(ctx, engine.Scenario{Net: paper}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	moved, carried, err := replan.Perturb(paper, 0.05, 2).Apply(paper, base.Tour.UploadAt)
	if err != nil {
		t.Fatal(err)
	}
	small := MustDeploy(DeployConfig{N: 15, FieldSide: 70, Range: 25, Seed: 1})
	ceilings := map[string]struct {
		sc      engine.Scenario
		ceiling float64
	}{
		"shdg":      {engine.Scenario{Net: paper}, 84},
		"visit-all": {engine.Scenario{Net: paper}, 47},
		"cla":       {engine.Scenario{Net: paper}, 13},
		"sweep":     {engine.Scenario{Net: paper}, 174},
		"warm":      {engine.Scenario{Net: moved, Prev: base.Tour, Carried: carried}, 69},
		"exact":     {engine.Scenario{Net: small}, 151},
	}
	for _, name := range engine.Names() {
		c, ok := ceilings[name]
		if !ok {
			t.Errorf("%s: registered planner has no allocation ceiling", name)
			continue
		}
		p, err := engine.Select(name)
		if err != nil {
			t.Fatal(err)
		}
		var st engine.Stats
		n := testing.AllocsPerRun(5, func() {
			if _, st, err = p.Plan(ctx, c.sc, engine.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per plan", name, n)
		if n > c.ceiling {
			t.Errorf("%s: one plan allocates %.0f objects, above its ceiling of %.0f", name, n, c.ceiling)
		}
		if name == "exact" && !st.Exact {
			t.Errorf("exact: plan hit its node cap; the ceiling assumes a certified optimum")
		}
	}
}
