package mtsp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"mobicol/internal/geom"
	"mobicol/internal/rng"
	"mobicol/internal/shdgp"
	"mobicol/internal/wsn"
)

var sink = geom.Pt(100, 100)

// validateSplit checks that every stop is served exactly once.
func validateSplit(mp *MultiPlan, stops []geom.Point) error {
	if len(mp.StopTour) != len(stops) {
		return fmt.Errorf("mtsp: %d stop assignments for %d stops", len(mp.StopTour), len(stops))
	}
	count := 0
	for _, tour := range mp.Tours {
		count += len(tour)
	}
	if count != len(stops) {
		return fmt.Errorf("mtsp: sub-tours visit %d stops, want %d", count, len(stops))
	}
	for i, t := range mp.StopTour {
		if t < 0 || t >= len(mp.Tours) {
			return fmt.Errorf("mtsp: stop %d assigned to tour %d of %d", i, t, len(mp.Tours))
		}
	}
	return nil
}

func randStops(s *rng.Source, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(s.Uniform(0, 200), s.Uniform(0, 200))
	}
	return pts
}

func TestMinCollectorsRespectsBound(t *testing.T) {
	s := rng.New(90)
	for trial := 0; trial < 10; trial++ {
		stops := randStops(s, 10+s.Intn(40))
		bound := s.Uniform(300, 700)
		mp, err := MinCollectors(sink, stops, bound)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := validateSplit(mp, stops); err != nil {
			t.Fatal(err)
		}
		for i, l := range mp.Lengths() {
			if l > bound+1e-6 {
				t.Fatalf("trial %d: sub-tour %d length %.1f exceeds bound %.1f", trial, i, l, bound)
			}
		}
	}
}

func TestMinCollectorsSingleTourWhenBoundLoose(t *testing.T) {
	s := rng.New(91)
	stops := randStops(s, 20)
	mp, err := MinCollectors(sink, stops, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if mp.K() != 1 {
		t.Fatalf("loose bound produced %d tours", mp.K())
	}
}

func TestMinCollectorsMonotoneInBound(t *testing.T) {
	s := rng.New(92)
	stops := randStops(s, 40)
	prev := -1
	for _, bound := range []float64{400, 600, 800, 1200, 2000} {
		mp, err := MinCollectors(sink, stops, bound)
		if err != nil {
			t.Fatalf("bound %v: %v", bound, err)
		}
		if prev >= 0 && mp.K() > prev {
			t.Fatalf("collectors increased from %d to %d as bound grew to %v", prev, mp.K(), bound)
		}
		prev = mp.K()
	}
}

func TestMinCollectorsInfeasibleBound(t *testing.T) {
	stops := []geom.Point{geom.Pt(0, 0)} // 2*dist(sink, stop) ≈ 283 m
	if _, err := MinCollectors(sink, stops, 100); err == nil {
		t.Fatal("infeasible bound accepted")
	}
}

func TestMinCollectorsRejectsBadBound(t *testing.T) {
	if _, err := MinCollectors(sink, nil, 0); err == nil {
		t.Fatal("zero bound accepted")
	}
}

func TestMinCollectorsEmptyStops(t *testing.T) {
	mp, err := MinCollectors(sink, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if mp.K() != 0 || mp.TotalLength() != 0 {
		t.Fatal("empty plan not empty")
	}
}

func TestMinMaxSplitKOne(t *testing.T) {
	s := rng.New(93)
	stops := randStops(s, 25)
	mp, err := MinMaxSplit(sink, stops, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mp.K() != 1 {
		t.Fatalf("k=1 produced %d tours", mp.K())
	}
	if err := validateSplit(mp, stops); err != nil {
		t.Fatal(err)
	}
}

// TestMinMaxSplitKOneKeepsPlanTour pins that one collector drives the
// plan's own tour. The sub-tour is polished from the plan's visit order,
// which the planner's last local search has already converged, so it
// comes back stop for stop; a re-solve would build a tour no planner
// produced. The fields are E5's first k=1 trials (N=300, L=300 m,
// R=30 m), on two of which a re-solve finds a shorter tour.
func TestMinMaxSplitKOneKeepsPlanTour(t *testing.T) {
	for trial := uint64(0); trial < 8; trial++ {
		seed := 2 + trial*104729
		nw := wsn.MustDeploy(wsn.Config{N: 300, FieldSide: 300, Range: 30, Seed: seed})
		sol, err := shdgp.Plan(context.Background(), shdgp.NewProblem(nw), shdgp.DefaultPlannerOptions())
		if err != nil {
			t.Fatal(err)
		}
		mp, err := MinMaxSplit(nw.Sink, sol.Plan.Stops, 1)
		if err != nil {
			t.Fatal(err)
		}
		if mp.K() != 1 || !slices.Equal(mp.Tours[0], sol.Plan.Stops) {
			t.Errorf("seed %d: k=1 sub-tours %v are not the plan's tour %v (%.3f m vs %.3f m)",
				seed, mp.Tours, sol.Plan.Stops, mp.MaxLength(), sol.Length)
		}
	}
}

func TestMinMaxSplitImprovesWithK(t *testing.T) {
	s := rng.New(94)
	stops := randStops(s, 50)
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		mp, err := MinMaxSplit(sink, stops, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := validateSplit(mp, stops); err != nil {
			t.Fatal(err)
		}
		if mp.K() > k {
			t.Fatalf("k=%d produced %d tours", k, mp.K())
		}
		got := mp.MaxLength()
		// The greedy splitter is approximate; it must never be worse and
		// should generally improve.
		if got > prev+1e-6 {
			t.Fatalf("max sub-tour grew from %.1f to %.1f as k rose to %d", prev, got, k)
		}
		prev = got
	}
}

func TestMinMaxSplitBoundedBelowByWorstRoundTrip(t *testing.T) {
	s := rng.New(95)
	stops := randStops(s, 30)
	worst := 0.0
	for _, p := range stops {
		worst = math.Max(worst, 2*sink.Dist(p))
	}
	mp, err := MinMaxSplit(sink, stops, 30)
	if err != nil {
		t.Fatal(err)
	}
	if mp.MaxLength() < worst-1e-6 {
		t.Fatalf("max sub-tour %.1f below the physical minimum %.1f", mp.MaxLength(), worst)
	}
}

func TestMinMaxSplitRejectsBadK(t *testing.T) {
	if _, err := MinMaxSplit(sink, nil, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestTotalLengthAtLeastMaxLength(t *testing.T) {
	s := rng.New(96)
	stops := randStops(s, 35)
	mp, err := MinMaxSplit(sink, stops, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mp.TotalLength() < mp.MaxLength()-1e-9 {
		t.Fatal("total shorter than max")
	}
}

func TestTourPlansPartitionSensors(t *testing.T) {
	s := rng.New(97)
	stops := randStops(s, 12)
	sensors := randStops(s, 60)
	// Assign each sensor to its nearest stop.
	uploadAt := make([]int, len(sensors))
	for i, p := range sensors {
		best, bd := -1, math.Inf(1)
		for j, q := range stops {
			if d := p.Dist2(q); d < bd {
				best, bd = j, d
			}
		}
		uploadAt[i] = best
	}
	mp, err := MinMaxSplit(sink, stops, 3)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := mp.TourPlans(sensors, uploadAt, stops)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != mp.K() {
		t.Fatalf("%d plans for %d tours", len(plans), mp.K())
	}
	served := 0
	for _, tp := range plans {
		served += tp.Served()
		if len(tp.UploadAt) != len(sensors) {
			t.Fatalf("%d assignments for %d sensors", len(tp.UploadAt), len(sensors))
		}
		for i, s := range tp.UploadAt {
			if s < -1 || s >= len(tp.Stops) {
				t.Fatalf("sensor %d assigned to stop %d of %d", i, s, len(tp.Stops))
			}
		}
	}
	if served != len(sensors) {
		t.Fatalf("plans serve %d of %d sensors", served, len(sensors))
	}
	// A master stop index past the end leaves that sensor unserved.
	uploadAt[0] = len(stops)
	plans, err = mp.TourPlans(sensors, uploadAt, stops)
	if err != nil {
		t.Fatal(err)
	}
	served = 0
	for _, tp := range plans {
		served += tp.Served()
	}
	if served != len(sensors)-1 {
		t.Fatalf("plans serve %d of %d sensors with sensor 0's stop out of range", served, len(sensors))
	}
}

func TestStopTourConsistent(t *testing.T) {
	s := rng.New(98)
	stops := randStops(s, 30)
	mp, err := MinMaxSplit(sink, stops, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, tIdx := range mp.StopTour {
		found := false
		for _, p := range mp.Tours[tIdx] {
			if p.Eq(stops[i]) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("stop %d not on its assigned tour %d", i, tIdx)
		}
	}
}

func BenchmarkMinCollectors(b *testing.B) {
	stops := randStops(rng.New(1), 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinCollectors(sink, stops, 600); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinMaxSplit(b *testing.B) {
	stops := randStops(rng.New(2), 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinMaxSplit(sink, stops, 4); err != nil {
			b.Fatal(err)
		}
	}
}
