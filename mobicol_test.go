package mobicol

import (
	"context"
	"math"
	"testing"
)

func testNet(seed uint64) *Network {
	return MustDeploy(DeployConfig{N: 150, FieldSide: 200, Range: 30, Seed: seed})
}

func TestPlanTourEndToEnd(t *testing.T) {
	nw := testNet(1)
	sol, err := PlanTour(nw)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(NewProblem(nw)); err != nil {
		t.Fatal(err)
	}
	if sol.Length <= 0 || sol.Stops() == 0 {
		t.Fatalf("degenerate solution: %.1fm, %d stops", sol.Length, sol.Stops())
	}
}

func TestPlanTourWithOptionsAndStrategies(t *testing.T) {
	nw := testNet(2)
	for _, strat := range []CandidateStrategy{SensorSites, FieldGrid, Intersections} {
		p := NewProblem(nw)
		p.Strategy = strat
		sol, err := PlanTourWith(context.Background(), p, DefaultPlannerOptions())
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if err := sol.Validate(p); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
	}
}

func TestPlanTourExactSmall(t *testing.T) {
	nw := MustDeploy(DeployConfig{N: 12, FieldSide: 70, Range: 25, Seed: 3})
	ex, err := PlanTourExact(nw)
	if err != nil {
		t.Fatal(err)
	}
	heur, err := PlanTour(nw)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Length > heur.Length+1e-6 {
		t.Fatalf("exact %.2f worse than heuristic %.2f", ex.Length, heur.Length)
	}
}

func TestVisitAllLongerThanPlan(t *testing.T) {
	nw := testNet(4)
	sol, err := PlanTour(nw)
	if err != nil {
		t.Fatal(err)
	}
	all, err := PlanVisitAll(nw)
	if err != nil {
		t.Fatal(err)
	}
	if all.Length <= sol.Length {
		t.Fatalf("visit-all %.1f not longer than SHDG %.1f", all.Length, sol.Length)
	}
}

func TestMultiCollectorAPI(t *testing.T) {
	nw := testNet(5)
	sol, err := PlanTour(nw)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := SplitTour(nw, sol, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mp.K() > 3 || mp.MaxLength() <= 0 {
		t.Fatalf("split: k=%d maxLen=%.1f", mp.K(), mp.MaxLength())
	}
	plans, err := SubTourPlans(nw, sol, mp)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, p := range plans {
		served += p.Served()
	}
	if served != nw.N() {
		t.Fatalf("sub-tours serve %d of %d", served, nw.N())
	}
	bounded, err := MinCollectors(nw, sol, float64(sol.Length)/2+300)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.K() < 1 {
		t.Fatal("no collectors")
	}
}

func TestBaselinesAndSimulationAPI(t *testing.T) {
	nw := testNet(6)
	sol, err := PlanTour(nw)
	if err != nil {
		t.Fatal(err)
	}
	cla, err := PlanCLA(nw)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := PlanStraightLine(nw, 2)
	if err != nil {
		t.Fatal(err)
	}
	static := PlanStaticSink(nw)

	model := DefaultEnergyModel()
	model.InitialJ = 0.01
	mobile := MobileScheme("shdg", nw, sol.Plan)
	schemes := []Scheme{mobile, StaticScheme(static), StraightLineScheme(sl)}
	var lifetimes []int
	for _, s := range schemes {
		res, err := RunLifetime(s, nw.N(), model, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		lifetimes = append(lifetimes, int(res.Rounds))
	}
	if lifetimes[0] <= lifetimes[1] {
		t.Fatalf("mobile lifetime %d not beyond static %d", lifetimes[0], lifetimes[1])
	}
	spec := DefaultCollectorSpec()
	if RoundLatency(mobile, spec, 0.005) <= RoundLatency(StaticScheme(static), spec, 0.005) {
		t.Fatal("mobility should cost latency")
	}
	if cla.Served() != nw.N() {
		t.Fatal("CLA does not serve everyone")
	}
}

func TestNewNetworkExplicit(t *testing.T) {
	nw := NewNetwork([]Point{Pt(10, 10), Pt(90, 90)}, Pt(50, 50), 30, 100)
	if nw.N() != 2 {
		t.Fatal("explicit network wrong")
	}
	sol, err := PlanTour(nw)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(float64(sol.Length)) || sol.Length <= 0 {
		t.Fatalf("length %v", sol.Length)
	}
}
