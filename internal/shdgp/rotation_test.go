package shdgp

import (
	"context"
	"testing"

	"mobicol/internal/collector"
	"mobicol/internal/geom"
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
	// Fingerprints must be pairwise distinct (duplicates are filtered).
	seen := map[string]bool{}
	for _, s := range sols {
		k := stopKey(s)
		if seen[k] {
			t.Fatal("duplicate plan survived filtering")
		}
		seen[k] = true
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
	if stopKey(a) != stopKey(b) {
		t.Fatal("stopKey depends on stop order")
	}
	c := &Solution{Plan: planWithStops(geom.Pt(3, 3), geom.Pt(1, 1))}
	if stopKey(a) == stopKey(c) {
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
