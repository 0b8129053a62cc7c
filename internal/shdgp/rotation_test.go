package shdgp

import (
	"context"
	"slices"
	"testing"

	"mobicol/internal/collector"
	"mobicol/internal/geom"
	"mobicol/internal/wsn"
)

func TestPlanDiverseInPackage(t *testing.T) {
	p := deploy(150, 200, 30, 41)
	sols, err := PlanDiverse(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) == 0 {
		t.Fatal("no plans returned")
	}
	for i, s := range sols {
		if err := s.Validate(p); err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
	}
	// Stop sets must be pairwise distinct (duplicates are filtered).
	for i := range sols {
		for j := range i {
			if slices.Equal(stopKey(sols[i]), stopKey(sols[j])) {
				t.Fatalf("plans %d and %d share a stop set", j, i)
			}
		}
	}
}

// TestPlanDiverseKeepsNearbyStops pins that the duplicate filter compares
// exact stop sets. Two sensors 1 mm apart: the tie-breaks at the sink and
// east of it pick the eastern sensor's site, the one west of the sink the
// western site. Both plans print as "(100.00, 100.00)" at two decimals,
// yet they are different plans.
func TestPlanDiverseKeepsNearbyStops(t *testing.T) {
	nw := wsn.New([]geom.Point{geom.Pt(100, 100), geom.Pt(100.001, 100)}, geom.Pt(150, 100), 30, geom.Square(200))
	sols, err := PlanDiverse(NewProblem(nw), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 ||
		!slices.Equal(sols[0].Plan.Stops, []geom.Point{geom.Pt(100.001, 100)}) ||
		!slices.Equal(sols[1].Plan.Stops, []geom.Point{geom.Pt(100, 100)}) {
		t.Fatalf("got %d plans, want one stopping at x = 100.001 and then one at x = 100", len(sols))
	}
}

func TestPlanDiverseKOne(t *testing.T) {
	p := deploy(60, 150, 30, 42)
	sols, err := PlanDiverse(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 {
		t.Fatalf("k=1 returned %d plans", len(sols))
	}
}

func TestStopKeyOrderInsensitive(t *testing.T) {
	a := &Solution{Plan: planWithStops(geom.Pt(1, 1), geom.Pt(2, 2))}
	b := &Solution{Plan: planWithStops(geom.Pt(2, 2), geom.Pt(1, 1))}
	if !slices.Equal(stopKey(a), stopKey(b)) {
		t.Fatal("stopKey depends on stop order")
	}
	c := &Solution{Plan: planWithStops(geom.Pt(3, 3), geom.Pt(1, 1))}
	if slices.Equal(stopKey(a), stopKey(c)) {
		t.Fatal("different stop sets share a key")
	}
}

func planWithStops(stops ...geom.Point) *collector.TourPlan {
	return &collector.TourPlan{Stops: stops}
}

func TestSolutionValidateCatchesTampering(t *testing.T) {
	p := deploy(80, 150, 30, 43)
	sol, err := Plan(context.Background(), p, DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Tamper: wrong recorded length.
	sol.Length += 10
	if err := sol.Validate(p); err == nil {
		t.Fatal("length tampering undetected")
	}
	sol.Length -= 10
	// Tamper: unserve a sensor.
	old := sol.Plan.UploadAt[0]
	sol.Plan.UploadAt[0] = -1
	if err := sol.Validate(p); err == nil {
		t.Fatal("unserved sensor undetected")
	}
	sol.Plan.UploadAt[0] = old
	// Tamper: move the sink.
	sol.Plan.Sink = geom.Pt(-1, -1)
	if err := sol.Validate(p); err == nil {
		t.Fatal("sink mismatch undetected")
	}
}
