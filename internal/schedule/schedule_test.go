package schedule

import (
	"context"
	"math"
	"testing"

	"mobicol/internal/collector"
	"mobicol/internal/geom"
	"mobicol/internal/shdgp"
	"mobicol/internal/wsn"
)

func plannedNet(t *testing.T, seed uint64) (*wsn.Network, *collector.TourPlan) {
	t.Helper()
	nw := wsn.MustDeploy(wsn.Config{N: 120, FieldSide: 200, Range: 30, Seed: seed})
	sol, err := shdgp.Plan(context.Background(), shdgp.NewProblem(nw), shdgp.DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	return nw, sol.Plan
}

func TestDemandsFromPlan(t *testing.T) {
	_, plan := plannedNet(t, 1)
	demands := DemandsFromPlan(plan, 0.01, 50)
	if len(demands) != len(plan.Stops) {
		t.Fatalf("%d demands for %d stops", len(demands), len(plan.Stops))
	}
	totalRate := 0.0
	for _, d := range demands {
		totalRate += d.Rate
		if d.Buffer != 50 {
			t.Fatal("buffer not propagated")
		}
	}
	if math.Abs(totalRate-0.01*float64(plan.Served())) > 1e-9 {
		t.Fatalf("total rate %v", totalRate)
	}
}

func TestCyclicFeasibleThresholds(t *testing.T) {
	_, plan := plannedNet(t, 2)
	spec := collector.DefaultSpec()
	period := plan.RoundTime(spec)
	// Generous buffers: feasible.
	loose := DemandsFromPlan(plan, 0.001, 0.002*period*100)
	if !CyclicFeasible(plan, loose, spec) {
		t.Fatal("loose demands infeasible")
	}
	// A buffer that fills faster than the round: infeasible.
	tight := DemandsFromPlan(plan, 1, period/2)
	if CyclicFeasible(plan, tight, spec) {
		t.Fatal("tight demands feasible")
	}
}

func TestMinSpeedMakesFeasible(t *testing.T) {
	_, plan := plannedNet(t, 3)
	demands := DemandsFromPlan(plan, 0.002, 10)
	v, err := MinSpeed(plan, demands, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatalf("MinSpeed = %v", v)
	}
	spec := collector.Spec{Speed: v * 1.001, UploadTime: 0.1}
	if !CyclicFeasible(plan, demands, spec) {
		t.Fatal("speed just above MinSpeed infeasible")
	}
	slow := collector.Spec{Speed: v * 0.9, UploadTime: 0.1}
	if CyclicFeasible(plan, demands, slow) {
		t.Fatal("speed below MinSpeed feasible")
	}
}

func TestMinSpeedImpossible(t *testing.T) {
	_, plan := plannedNet(t, 4)
	// Horizon shorter than the pure upload time.
	demands := DemandsFromPlan(plan, 10, 1) // 0.1s horizon at hottest stop
	if _, err := MinSpeed(plan, demands, 0.1); err == nil {
		t.Fatal("impossible demands accepted")
	}
}

func TestMinSpeedNoData(t *testing.T) {
	_, plan := plannedNet(t, 5)
	demands := DemandsFromPlan(plan, 0, 10)
	v, err := MinSpeed(plan, demands, 0.1)
	if err != nil || v != 0 {
		t.Fatalf("no-data MinSpeed = %v, %v", v, err)
	}
}

func TestRunFeasibleCyclicLosesNothing(t *testing.T) {
	_, plan := plannedNet(t, 6)
	spec := collector.DefaultSpec()
	period := plan.RoundTime(spec)
	// Buffers hold 3 periods of data: comfortably feasible.
	demands := make([]Demand, len(plan.Stops))
	for i, c := range plan.SensorsAt() {
		rate := float64(c) * 0.001
		demands[i] = Demand{Rate: rate, Buffer: rate * period * 3}
	}
	res, err := Run(plan, demands, spec, Cyclic, period*10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost > 1e-9 {
		t.Fatalf("feasible cyclic run lost %v packets", res.Lost)
	}
	if res.Visits < len(plan.Stops) {
		t.Fatalf("only %d visits in 10 periods", res.Visits)
	}
	if res.Collected <= 0 || res.Generated <= 0 {
		t.Fatalf("degenerate run %+v", res)
	}
}

func TestRunOverloadedLosesData(t *testing.T) {
	_, plan := plannedNet(t, 7)
	spec := collector.DefaultSpec()
	period := plan.RoundTime(spec)
	// Buffers hold only a tenth of a period: loss is unavoidable.
	demands := make([]Demand, len(plan.Stops))
	for i, c := range plan.SensorsAt() {
		rate := float64(c) * 0.01
		demands[i] = Demand{Rate: rate, Buffer: rate * period / 10}
	}
	res, err := Run(plan, demands, spec, Cyclic, period*5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost <= 0 {
		t.Fatal("overloaded run lost nothing")
	}
	if res.LossFraction() <= 0 || res.LossFraction() >= 1 {
		t.Fatalf("loss fraction %v", res.LossFraction())
	}
}

func TestEDFNotWorseOnHotspot(t *testing.T) {
	// Heterogeneous demands: one hot stop near the sink needs frequent
	// visits; EDF should lose no more than the oblivious cycle.
	_, plan := plannedNet(t, 8)
	spec := collector.DefaultSpec()
	period := plan.RoundTime(spec)
	demands := make([]Demand, len(plan.Stops))
	for i, c := range plan.SensorsAt() {
		rate := float64(c) * 0.0005
		demands[i] = Demand{Rate: rate, Buffer: rate * period * 2}
	}
	// Make stop 0 hot: 20x the rate with the same absolute buffer.
	demands[0].Rate *= 20
	cyc, err := Run(plan, demands, spec, Cyclic, period*8)
	if err != nil {
		t.Fatal(err)
	}
	edf, err := Run(plan, demands, spec, EDF, period*8)
	if err != nil {
		t.Fatal(err)
	}
	if edf.LossFraction() > cyc.LossFraction()+1e-9 {
		t.Fatalf("EDF loss %.4f worse than cyclic %.4f", edf.LossFraction(), cyc.LossFraction())
	}
}

func TestRunConservation(t *testing.T) {
	// Generated >= Collected + Lost (the remainder sits in buffers).
	_, plan := plannedNet(t, 9)
	spec := collector.DefaultSpec()
	demands := DemandsFromPlan(plan, 0.002, 5)
	for _, pol := range []Policy{Cyclic, EDF} {
		res, err := Run(plan, demands, spec, pol, 3000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Collected+res.Lost > res.Generated+1e-6 {
			t.Fatalf("%v: collected %v + lost %v > generated %v", pol, res.Collected, res.Lost, res.Generated)
		}
		if res.Driven <= 0 {
			t.Fatalf("%v: no driving", pol)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	_, plan := plannedNet(t, 10)
	demands := DemandsFromPlan(plan, 0.001, 10)
	if _, err := Run(plan, demands[:1], collector.DefaultSpec(), Cyclic, 100); err == nil {
		t.Fatal("demand/stop mismatch accepted")
	}
	if _, err := Run(plan, demands, collector.Spec{Speed: 0}, Cyclic, 100); err == nil {
		t.Fatal("zero speed accepted")
	}
	if _, err := Run(plan, demands, collector.DefaultSpec(), Cyclic, 0); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestRunEmptyPlan(t *testing.T) {
	plan := &collector.TourPlan{Sink: geom.Pt(0, 0)}
	res, err := Run(plan, nil, collector.DefaultSpec(), EDF, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 0 || res.Visits != 0 {
		t.Fatalf("empty plan result %+v", res)
	}
}
