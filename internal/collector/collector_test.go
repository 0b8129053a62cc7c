package collector

import (
	"math"
	"testing"

	"mobicol/internal/geom"
)

func squarePlan() *TourPlan {
	return &TourPlan{
		Sink:     geom.Pt(0, 0),
		Stops:    []geom.Point{geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)},
		UploadAt: []int{0, 1, 2, 1},
	}
}

func TestLength(t *testing.T) {
	tp := squarePlan()
	if got := tp.Length(); math.Abs(float64(got)-40) > 1e-12 {
		t.Fatalf("Length = %v, want 40", got)
	}
	empty := &TourPlan{Sink: geom.Pt(5, 5)}
	if empty.Length() != 0 {
		t.Fatal("empty tour should have zero length")
	}
}

func TestSingleStopOutAndBack(t *testing.T) {
	tp := &TourPlan{Sink: geom.Pt(0, 0), Stops: []geom.Point{geom.Pt(7, 0)}}
	if got := tp.Length(); math.Abs(float64(got)-14) > 1e-12 {
		t.Fatalf("Length = %v, want 14", got)
	}
}

func TestSensorsAtAndServed(t *testing.T) {
	tp := squarePlan()
	counts := tp.SensorsAt()
	want := []int{1, 2, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("SensorsAt = %v", counts)
		}
	}
	if tp.Served() != 4 {
		t.Fatalf("Served = %d", tp.Served())
	}
	tp.UploadAt[0] = -1
	if tp.Served() != 3 {
		t.Fatalf("Served after unassign = %d", tp.Served())
	}
}

func TestRoundTime(t *testing.T) {
	tp := squarePlan()
	spec := Spec{Speed: 2, UploadTime: 0.5}
	want := 40.0/2 + 4*0.5
	if got := tp.RoundTime(spec); math.Abs(got-want) > 1e-12 {
		t.Fatalf("RoundTime = %v, want %v", got, want)
	}
}

func TestRoundTimePanicsOnZeroSpeed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero speed did not panic")
		}
	}()
	squarePlan().RoundTime(Spec{})
}

func TestDefaultSpec(t *testing.T) {
	s := DefaultSpec()
	if s.Speed != 1 || s.UploadTime <= 0 {
		t.Fatalf("DefaultSpec = %+v", s)
	}
}
