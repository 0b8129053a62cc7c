package conformance_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mobicol/internal/check"
	"mobicol/internal/collector"
	"mobicol/internal/cover"
	"mobicol/internal/engine"
	"mobicol/internal/engine/conformance"
	"mobicol/internal/geom"
	"mobicol/internal/par"
	"mobicol/internal/wsn"
)

// configFor sizes the suite per planner: the exact solver needs tiny
// instances to stay inside its candidate/stop limits, and visit-all's
// per-sensor TSP gets a sensor cap to keep the sweep fast.
func configFor(name string) conformance.Config {
	switch name {
	case "exact":
		return conformance.Config{Seed: 7, Scenarios: 3, MaxSensors: 12}
	case "visit-all":
		return conformance.Config{Seed: 5, Scenarios: 6, MaxSensors: 40}
	default:
		return conformance.Config{Seed: 3, Scenarios: 6}
	}
}

// TestAllRegisteredPlanners is the headline gate: every planner in the
// registry — including any added after this test was written — must pass
// the full conformance suite.
func TestAllRegisteredPlanners(t *testing.T) {
	names := engine.Names()
	if len(names) == 0 {
		t.Fatal("no planners registered")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			p, ok := engine.Lookup(name)
			if !ok {
				t.Fatalf("planner %q vanished from the registry", name)
			}
			conformance.Run(t, p, configFor(name))
		})
	}
}

// brokenPlanner is a deliberately non-conformant fixture: it strands
// every sensor, lies about its stats, ignores context cancellation,
// emits no progress, and varies its output call to call.
type brokenPlanner struct {
	calls int
}

func (b *brokenPlanner) Name() string { return "broken-fixture" }

func (b *brokenPlanner) Plan(ctx context.Context, sc engine.Scenario, opts engine.Options) (*engine.Plan, engine.Stats, error) {
	b.calls++ // nondeterminism: the stop drifts with every call
	tour := &collector.TourPlan{
		Sink:     sc.Net.Sink,
		Stops:    []geom.Point{sc.Net.Sink.Add(geom.Pt(float64(b.calls), 0))},
		UploadAt: make([]int, sc.Net.N()),
	}
	for i := range tour.UploadAt {
		tour.UploadAt[i] = -1 // coverage violation: every sensor stranded
	}
	return &engine.Plan{Tour: tour, Algorithm: "broken"},
		engine.Stats{Length: tour.Length() + 1, Stops: 99}, nil
}

// recordingTB captures suite failures instead of failing the test, so
// the negative test can assert on them.
type recordingTB struct {
	failures []string
}

func (r *recordingTB) Helper() {}

func (r *recordingTB) Errorf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// TestBrokenPlannerFailsSuite is the suite's negative control: a fixture
// violating every contract clause must be flagged on every one of them.
// A conformance harness that passes this planner verifies nothing.
func TestBrokenPlannerFailsSuite(t *testing.T) {
	bp := &brokenPlanner{}
	engine.Register(bp.Name(), bp)
	defer engine.Unregister(bp.Name())

	rec := &recordingTB{}
	conformance.Run(rec, bp, conformance.Config{Seed: 3, Scenarios: 2})
	if len(rec.failures) == 0 {
		t.Fatal("conformance suite passed a deliberately broken planner")
	}
	all := strings.Join(rec.failures, "\n")
	for _, want := range []string{
		"oracle",                // stranded sensors fail the coverage invariant
		"stats",                 // recorded length and stop count both lie
		"determinism",           // output drifts call to call
		"want context.Canceled", // canceled context ignored
		"progress",              // no events emitted
	} {
		if !strings.Contains(all, want) {
			t.Errorf("suite missed the %q violation; failures:\n%s", want, all)
		}
	}
}

// TestSuiteReportsEmptyScenarioFilter pins the guard against a config
// whose sensor cap filters out every generated deployment.
func TestSuiteReportsEmptyScenarioFilter(t *testing.T) {
	p, ok := engine.Lookup("shdg")
	if !ok {
		t.Fatal("shdg not registered")
	}
	errs := conformance.Suite(p, conformance.Config{Seed: 3, Scenarios: 2, MaxSensors: 1})
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "no scenarios") {
		t.Fatalf("want a single no-scenarios error, got %v", errs)
	}
}

// TestCancelUnderLoad is the cancellation smoke the CI job runs with
// -race: start a 10k-sensor plan, cancel it from the progress hook as
// the refine phase starts, after the tour phase has built the plan's one
// tour, and demand a clean context.Canceled return with no goroutines
// left behind.
func TestCancelUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-sensor plan; skipped in -short")
	}
	nw := wsn.MustDeploy(wsn.Config{N: 10000, FieldSide: 2000, Range: 30, Seed: 1})
	p, ok := engine.Lookup("shdg")
	if !ok {
		t.Fatal("shdg not registered")
	}
	check.NoLeakedGoroutines(t, func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var phases []string
		opts := engine.Options{Pool: par.Workers(8), Progress: func(ev engine.Event) {
			if !ev.Done {
				phases = append(phases, ev.Phase)
			}
			if ev.Phase == "refine" && !ev.Done {
				cancel()
			}
		}}
		pl, _, err := p.Plan(ctx, engine.Scenario{Net: nw}, opts)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("want context.Canceled, got %v", err)
		}
		if pl != nil {
			t.Error("non-nil plan alongside cancellation")
		}
		want := []string{"plan", "candidates", "cover", "tour", "construct", "twoopt", "oropt", "twoopt", "refine"}
		if !slices.Equal(phases, want) {
			t.Errorf("started phases %v, want %v", phases, want)
		}
	})
}

// TestAdversarialNetworks runs every registered planner on networks at
// the edges of the model: ranges far below the sensor spacing (a grid
// index sized by the range, or one CLA sweep line per 2R, would need
// gigabytes), a field whose squared extent overflows, and the empty,
// one-sensor, coincident, collinear and range-exceeds-field networks.
// Each run must return an oracle-valid plan or an error, never panic.
// Ranges of 1e17 and 1e30 m on a 100 m field must plan: grid range
// queries there used to walk 1e16 cell rows, or overflow int and find
// no sensor in range.
func TestAdversarialNetworks(t *testing.T) {
	deploy := func(n int, side, r float64) *wsn.Network {
		nw, err := wsn.Deploy(wsn.Config{N: n, FieldSide: side, Range: r, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	line := make([]geom.Point, 20)
	for i := range line {
		line[i] = geom.Pt(5*float64(i), 50)
	}
	same := make([]geom.Point, 10)
	for i := range same {
		same[i] = geom.Pt(30, 30)
	}
	field := geom.Square(100)
	// A 100 m field 1e17 m up, where one 2 m sweep step is below half an
	// ulp of the coordinates.
	far := geom.NewRect(geom.Pt(0, 1e17), geom.Pt(100, 1e17+100))
	farPts := make([]geom.Point, 10)
	for i := range farPts {
		farPts[i] = geom.Pt(10*float64(i), 1e17+10*float64(i))
	}
	nets := []struct {
		name     string
		nw       *wsn.Network
		mustPlan bool
	}{
		{"range-1mm", deploy(50, 200, 0.001), false},
		{"extent-1e300", wsn.New([]geom.Point{geom.Pt(0, 0), geom.Pt(1e300, 1e300), geom.Pt(5e299, 1)}, geom.Pt(0, 0), 30, geom.Square(1e300)), false},
		{"range-1nm", deploy(20, 100, 1e-9), false},
		{"empty", wsn.New(nil, field.Center(), 10, field), false},
		{"one-sensor", wsn.New([]geom.Point{geom.Pt(10, 10)}, field.Center(), 10, field), false},
		{"coincident", wsn.New(same, field.Center(), 10, field), false},
		{"collinear", wsn.New(line, field.Center(), 12, field), false},
		{"range-exceeds-field", deploy(30, 100, 500), false},
		{"offset-field-1e17", wsn.New(farPts, far.Center(), 1, far), false},
		{"range-1e17", deploy(30, 100, 1e17), true},
		{"range-1e30", deploy(30, 100, 1e30), true},
	}
	for _, name := range engine.Names() {
		p, _ := engine.Lookup(name)
		for _, tc := range nets {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic: %v", r)
					}
				}()
				pl, st, err := p.Plan(context.Background(), engine.Scenario{Net: tc.nw}, engine.Options{})
				if err != nil {
					if tc.mustPlan {
						t.Fatalf("plan: %v", err)
					}
					return
				}
				if err := check.Plan(tc.nw, pl.Tour, check.Options{UploadDist: pl.UploadDist}); err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if err := check.RecordedLength(pl.Tour, st.Length); err != nil {
					t.Fatalf("stats: %v", err)
				}
			})
		}
	}
}

// TestExactNoLongerThanHeuristics tests the exact planner's optimality
// claim instead of trusting it: whenever exact reports Exact, its tour is
// no longer than shdg's or sweep's on the same network with the same
// candidate strategy.
func TestExactNoLongerThanHeuristics(t *testing.T) {
	plan := func(name string, nw *wsn.Network, st cover.CandidateStrategy) engine.Stats {
		t.Helper()
		p, ok := engine.Lookup(name)
		if !ok {
			t.Fatalf("planner %q is not registered", name)
		}
		_, stats, err := p.Plan(context.Background(), engine.Scenario{Net: nw}, engine.Options{Strategy: st})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return stats
	}
	certified := 0
	for _, pl := range []wsn.Placement{wsn.Uniform, wsn.Clustered} {
		for _, st := range []cover.CandidateStrategy{cover.SensorSites, cover.FieldGrid} {
			for seed := uint64(1); seed <= 30; seed++ {
				nw, err := wsn.Deploy(wsn.Config{N: 16, FieldSide: 120, Range: 25, Placement: pl, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				ex := plan("exact", nw, st)
				if !ex.Exact {
					continue
				}
				certified++
				for _, other := range []string{"shdg", "sweep"} {
					if o := plan(other, nw, st); ex.Length > o.Length+1e-9 {
						t.Errorf("%v/%v/seed %d: exact %.6f m is longer than %s's %.6f m",
							pl, st, seed, ex.Length, other, o.Length)
					}
				}
			}
		}
	}
	if certified == 0 {
		t.Fatal("no network was certified exact; the law checked nothing")
	}
	t.Logf("%d of 120 networks certified exact", certified)
}
