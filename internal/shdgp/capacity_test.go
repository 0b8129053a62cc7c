package shdgp

import (
	"context"
	"testing"

	"mobicol/internal/cover"
	"mobicol/internal/tsp"
	"mobicol/internal/wsn"
)

func TestPlanCapacitatedRespectsCap(t *testing.T) {
	for _, cap := range []int{1, 3, 5, 10, 20} {
		for seed := uint64(0); seed < 4; seed++ {
			p := deploy(120, 200, 30, seed)
			sol, err := PlanCapacitated(p, cap)
			if err != nil {
				t.Fatalf("cap=%d seed=%d: %v", cap, seed, err)
			}
			if err := sol.Validate(p); err != nil {
				t.Fatalf("cap=%d seed=%d: %v", cap, seed, err)
			}
			if err := sol.ValidateCapacity(cap); err != nil {
				t.Fatalf("cap=%d seed=%d: %v", cap, seed, err)
			}
		}
	}
}

func TestPlanCapacitatedCapOneVisitsEverySensorEquivalent(t *testing.T) {
	p := deploy(60, 150, 30, 2)
	sol, err := PlanCapacitated(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stops() != p.Net.N() {
		t.Fatalf("cap=1 produced %d stops for %d sensors", sol.Stops(), p.Net.N())
	}
}

func TestPlanCapacitatedTourShrinksWithCap(t *testing.T) {
	p := deploy(150, 200, 30, 5)
	prev := -1.0
	for _, cap := range []int{1, 2, 5, 50} {
		sol, err := PlanCapacitated(p, cap)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && float64(sol.Length) > prev*1.05 {
			t.Fatalf("tour grew as capacity rose to %d: %.1f -> %.1f", cap, prev, sol.Length)
		}
		prev = float64(sol.Length)
	}
}

func TestPlanCapacitatedLooseCapMatchesUncapacitatedScale(t *testing.T) {
	p := deploy(100, 200, 30, 7)
	loose, err := PlanCapacitated(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	free, err := Plan(context.Background(), p, DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Same greedy family: within 25% of each other.
	if loose.Length > free.Length*1.25 {
		t.Fatalf("loose-cap plan %.1f much worse than uncapacitated %.1f", loose.Length, free.Length)
	}
}

func TestPlanCapacitatedRejectsBadCap(t *testing.T) {
	p := deploy(10, 100, 30, 1)
	if _, err := PlanCapacitated(p, 0); err == nil {
		t.Fatal("cap=0 accepted")
	}
}

func TestPlanCapacitatedGridStrategy(t *testing.T) {
	p := deploy(80, 200, 30, 9)
	p.Strategy = cover.FieldGrid
	sol, err := PlanCapacitated(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(p); err != nil {
		t.Fatal(err)
	}
	if err := sol.ValidateCapacity(8); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCapacityDetectsViolation(t *testing.T) {
	p := deploy(100, 150, 30, 3)
	sol, err := Plan(context.Background(), p, DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	// An uncapacitated plan on a dense field almost surely has a stop
	// serving more than one sensor.
	if err := sol.ValidateCapacity(1); err == nil {
		t.Skip("rare draw: every stop serves exactly one sensor")
	}
}

func TestPlanSweepValidAndComplete(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		p := deploy(150, 200, 30, seed)
		sol, err := PlanSweep(p, tsp.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sol.Validate(p); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sol.Plan.Served() != p.Net.N() {
			t.Fatalf("seed %d: served %d of %d", seed, sol.Plan.Served(), p.Net.N())
		}
	}
}

func TestPlanSweepDisconnected(t *testing.T) {
	nw := wsn.MustDeploy(wsn.Config{N: 80, FieldSide: 500, Range: 25, Placement: wsn.Clustered, Clusters: 4, Seed: 3})
	p := NewProblem(nw)
	sol, err := PlanSweep(p, tsp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Plan.Served() != nw.N() {
		t.Fatalf("served %d of %d across components", sol.Plan.Served(), nw.N())
	}
}

func TestPlanSweepComparableToGreedy(t *testing.T) {
	// Sweep is a weaker global optimiser but must stay in the same league
	// (within 40% on a dense field).
	p := deploy(200, 200, 30, 11)
	sweep, err := PlanSweep(p, tsp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Plan(context.Background(), p, DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Length > greedy.Length*1.4 {
		t.Fatalf("sweep %.1f far worse than greedy %.1f", sweep.Length, greedy.Length)
	}
}

func TestPlanSweepEmptyNetwork(t *testing.T) {
	nw := wsn.New(nil, wsn.MustDeploy(wsn.Config{N: 1, FieldSide: 10, Range: 5, Seed: 1}).Sink, 5, wsn.MustDeploy(wsn.Config{N: 1, FieldSide: 10, Range: 5, Seed: 1}).Field)
	if _, err := PlanSweep(NewProblem(nw), tsp.DefaultOptions()); err == nil {
		t.Fatal("empty network accepted")
	}
}
