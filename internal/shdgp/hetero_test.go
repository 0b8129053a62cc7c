package shdgp

import (
	"testing"

	"mobicol/internal/rng"
)

func TestPlanHeteroUniformMatchesSemantics(t *testing.T) {
	p := deploy(100, 200, 30, 1)
	radii := make([]float64, p.Net.N())
	for i := range radii {
		radii[i] = p.Net.Range
	}
	sol, err := PlanHetero(p.Net, radii)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.ValidateHetero(p.Net.Positions(), radii); err != nil {
		t.Fatal(err)
	}
	// With uniform radii this is ordinary SHDGP: the standard validator
	// must also pass.
	if err := sol.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestPlanHeteroRespectsWeakSensors(t *testing.T) {
	p := deploy(120, 200, 30, 3)
	s := rng.New(7)
	radii := make([]float64, p.Net.N())
	for i := range radii {
		if s.Bool(0.5) {
			radii[i] = 12 // weak radio
		} else {
			radii[i] = 30
		}
	}
	sol, err := PlanHetero(p.Net, radii)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.ValidateHetero(p.Net.Positions(), radii); err != nil {
		t.Fatal(err)
	}
}

func TestPlanHeteroWeakSensorsLengthenTour(t *testing.T) {
	p := deploy(150, 200, 30, 5)
	strong := make([]float64, p.Net.N())
	weak := make([]float64, p.Net.N())
	for i := range strong {
		strong[i] = 30
		weak[i] = 10
	}
	a, err := PlanHetero(p.Net, strong)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanHetero(p.Net, weak)
	if err != nil {
		t.Fatal(err)
	}
	if b.Length <= a.Length {
		t.Fatalf("weak radios (%.1f) should need a longer tour than strong (%.1f)", b.Length, a.Length)
	}
	if b.Stops() <= a.Stops() {
		t.Fatalf("weak radios should need more stops: %d vs %d", b.Stops(), a.Stops())
	}
}

func TestPlanHeteroRejectsBadInput(t *testing.T) {
	p := deploy(10, 100, 30, 1)
	if _, err := PlanHetero(p.Net, make([]float64, 3)); err == nil {
		t.Fatal("mismatched radii accepted")
	}
	bad := make([]float64, p.Net.N())
	if _, err := PlanHetero(p.Net, bad); err == nil {
		t.Fatal("non-positive radius accepted")
	}
}
