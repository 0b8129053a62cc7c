package sim

import (
	"context"
	"math"
	"testing"

	"mobicol/internal/collector"
	"mobicol/internal/geom"
	"mobicol/internal/routing"
	"mobicol/internal/shdgp"
	"mobicol/internal/wsn"
)

func TestDESMobileRoundHandComputed(t *testing.T) {
	// Sink at origin, one stop at (10,0) with two sensors, speed 1,
	// upload 0.5 s. Arrive at t=10; pickups at 10.5 and 11; home at 11+10.
	nw := wsn.New([]geom.Point{geom.Pt(10, 5), geom.Pt(10, -5)}, geom.Pt(0, 0), 6, geom.Square(20))
	plan := &collector.TourPlan{
		Sink:     geom.Pt(0, 0),
		Stops:    []geom.Point{geom.Pt(10, 0)},
		UploadAt: []int{0, 0},
	}
	rt, err := DESMobileRound(nw, plan, collector.Spec{Speed: 1, UploadTime: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rt.Done[0]-10.5) > 1e-9 || math.Abs(rt.Done[1]-11) > 1e-9 {
		t.Fatalf("Done = %v", rt.Done)
	}
	if math.Abs(rt.Finish-21) > 1e-9 {
		t.Fatalf("Finish = %v", rt.Finish)
	}
	if rt.MaxQueue() != 2 {
		t.Fatalf("MaxQueue = %d", rt.MaxQueue())
	}
}

func TestDESMobileMatchesAnalyticRoundTime(t *testing.T) {
	nw := wsn.MustDeploy(wsn.Config{N: 120, FieldSide: 200, Range: 30, Seed: 3})
	sol, err := shdgp.Plan(context.Background(), shdgp.NewProblem(nw), shdgp.DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	spec := collector.DefaultSpec()
	rt, err := DESMobileRound(nw, sol.Plan, spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rt.Finish-sol.Plan.RoundTime(spec)) > 1e-6 {
		t.Fatalf("DES finish %.3f != analytic %.3f", rt.Finish, sol.Plan.RoundTime(spec))
	}
	for i, d := range rt.Done {
		if d < 0 {
			t.Fatalf("sensor %d never picked up", i)
		}
		if d > rt.Finish+1e-9 {
			t.Fatalf("pickup after finish")
		}
	}
}

func TestDESMobilePeakQueueMatchesAssignment(t *testing.T) {
	nw := wsn.MustDeploy(wsn.Config{N: 100, FieldSide: 150, Range: 30, Seed: 4})
	sol, err := shdgp.Plan(context.Background(), shdgp.NewProblem(nw), shdgp.DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := DESMobileRound(nw, sol.Plan, collector.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	counts := sol.Plan.SensorsAt()
	total := 0
	for s, c := range counts {
		if rt.PeakQueue[s] != c {
			t.Fatalf("stop %d queue %d != assigned %d", s, rt.PeakQueue[s], c)
		}
		total += c
	}
	if total != nw.N() {
		t.Fatalf("assignments total %d", total)
	}
}

func TestDESStaticChainNoContention(t *testing.T) {
	// Pure chain: sink - s0 - s1 - s2. s0's own packet arrives at delay;
	// with store-and-forward, s1's at 3*delay (queued behind s0's at s0),
	// s2's at 5*delay... compute: t=0 all start. s0 tx own -> sink @1d.
	// s1 tx own -> s0 @1d; s0 tx s1's @2d->sink? s0 became free at 1d,
	// queue got s1's at 1d, arrives sink 2d. s2's: s1 free at 1d, s2's
	// arrives s1 at 1d, s1 tx @2d to s0, s0 free (sent s1's 1d..2d),
	// s0 tx 2d..3d -> sink at 3d.
	pts := []geom.Point{geom.Pt(8, 0), geom.Pt(16, 0), geom.Pt(24, 0)}
	nw := wsn.New(pts, geom.Pt(0, 0), 10, geom.Square(50))
	plan := routing.BuildPlan(nw)
	rt, err := DESStaticRound(plan, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i, w := range want {
		if math.Abs(rt.Done[i]-w) > 1e-9 {
			t.Fatalf("Done = %v, want %v", rt.Done, want)
		}
	}
	if rt.Finish != 3 {
		t.Fatalf("Finish = %v", rt.Finish)
	}
}

func TestDESStaticStarContention(t *testing.T) {
	// A relay hub: sink - hub - {4 leaves}. The hub serialises: its own
	// packet at 1d, then the leaves' at 3d,4d,5d,6d (leaf arrives hub at
	// 1d, hub busy until... hub tx own 0..1; leaves arrive at 1; hub tx
	// them 1..2, 2..3, 3..4, 4..5 -> sink arrivals 2,3,4,5.
	pts := []geom.Point{
		geom.Pt(8, 0),                                                   // hub (sensor 0)
		geom.Pt(16, 0), geom.Pt(16, 3), geom.Pt(16, -3), geom.Pt(14, 6), // leaves
	}
	nw := wsn.New(pts, geom.Pt(0, 0), 10, geom.Square(50))
	plan := routing.BuildPlan(nw)
	for i := 1; i < 5; i++ {
		if plan.NextHop[i] != 0 {
			t.Fatalf("leaf %d routes via %d, want hub", i, plan.NextHop[i])
		}
	}
	rt, err := DESStaticRound(plan, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Done[0] != 1 {
		t.Fatalf("hub own packet at %v", rt.Done[0])
	}
	if rt.Finish != 5 {
		t.Fatalf("Finish = %v, want 5 (serialised hub)", rt.Finish)
	}
	// The closed-form estimate maxHops*delay = 2 underestimates: this is
	// exactly the congestion the DES captures.
	if rt.Finish <= 2 {
		t.Fatal("no contention captured")
	}
	if rt.PeakQueue[0] < 3 {
		t.Fatalf("hub peak queue %d, want >= 3", rt.PeakQueue[0])
	}
}

func TestDESStaticAllPacketsArrive(t *testing.T) {
	nw := wsn.MustDeploy(wsn.Config{N: 200, FieldSide: 200, Range: 30, Seed: 5})
	plan := routing.BuildPlan(nw)
	rt, err := DESStaticRound(plan, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nw.N(); i++ {
		if plan.Connected(i) && rt.Done[i] < 0 {
			t.Fatalf("connected sensor %d never delivered", i)
		}
		if !plan.Connected(i) && rt.Done[i] >= 0 {
			t.Fatalf("disconnected sensor %d delivered", i)
		}
	}
	// Contention makes the true finish at least the analytic bound.
	analytic := NewStatic(plan).RoundTime(collector.DefaultSpec(), 0.005)
	if rt.Finish < analytic-1e-9 {
		t.Fatalf("DES finish %.4f below hop-count bound %.4f", rt.Finish, analytic)
	}
}

func TestDESStaticDisconnected(t *testing.T) {
	pts := []geom.Point{geom.Pt(8, 0), geom.Pt(190, 190)}
	nw := wsn.New(pts, geom.Pt(0, 0), 10, geom.Square(200))
	plan := routing.BuildPlan(nw)
	rt, err := DESStaticRound(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Done[1] >= 0 {
		t.Fatal("stranded packet delivered")
	}
}

func TestDESRejectsBadParams(t *testing.T) {
	nw := wsn.MustDeploy(wsn.Config{N: 10, FieldSide: 100, Range: 30, Seed: 1})
	plan := routing.BuildPlan(nw)
	if _, err := DESStaticRound(plan, 0); err == nil {
		t.Fatal("zero delay accepted")
	}
	sol, err := shdgp.Plan(context.Background(), shdgp.NewProblem(nw), shdgp.DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DESMobileRound(nw, sol.Plan, collector.Spec{Speed: 0}); err == nil {
		t.Fatal("zero speed accepted")
	}
}
