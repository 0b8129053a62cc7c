package sim

import (
	"testing"

	"mobicol/internal/baselines"
	"mobicol/internal/collector"
	"mobicol/internal/energy"
	"mobicol/internal/routing"
	"mobicol/internal/shdgp"
	"mobicol/internal/wsn"
)

// testNet is a moderately dense field where all four schemes work.
func testNet(seed uint64) *wsn.Network {
	return wsn.MustDeploy(wsn.Config{N: 150, FieldSide: 200, Range: 30, Seed: seed})
}

// smallBattery keeps lifetime runs to hundreds of rounds.
func smallBattery() energy.Model {
	m := energy.DefaultModel()
	m.InitialJ = 0.01
	return m
}

func buildSchemes(t *testing.T, nw *wsn.Network) (mobile, cla, static, straight Scheme) {
	t.Helper()
	sol, err := shdgp.Plan(shdgp.NewProblem(nw), shdgp.DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	claPlan, err := baselines.PlanCLA(nw)
	if err != nil {
		t.Fatal(err)
	}
	slPlan, err := baselines.PlanStraightLine(nw, 2)
	if err != nil {
		t.Fatal(err)
	}
	return NewMobile("shdg", nw, sol.Plan),
		NewCLA(nw, claPlan),
		NewStatic(routing.BuildPlan(nw)),
		NewStraightLine(slPlan)
}

func TestRunLifetimeTerminates(t *testing.T) {
	nw := testNet(1)
	mobile, cla, static, straight := buildSchemes(t, nw)
	for _, s := range []Scheme{mobile, cla, static, straight} {
		res, err := RunLifetime(s, nw.N(), smallBattery(), 100000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Died {
			t.Fatalf("%s: nobody died in 100000 rounds with a tiny battery", s.Name())
		}
		if res.Rounds <= 0 {
			t.Fatalf("%s: lifetime %d", s.Name(), res.Rounds)
		}
	}
}

func TestMobileOutlivesStaticSink(t *testing.T) {
	// The headline result: single-hop mobile gathering avoids the
	// sink-adjacent relay hot-spot, so its first death comes much later.
	for seed := uint64(1); seed <= 3; seed++ {
		nw := testNet(seed)
		mobile, _, static, _ := buildSchemes(t, nw)
		mres, err := RunLifetime(mobile, nw.N(), smallBattery(), 200000)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := RunLifetime(static, nw.N(), smallBattery(), 200000)
		if err != nil {
			t.Fatal(err)
		}
		if mres.Rounds <= sres.Rounds {
			t.Fatalf("seed %d: mobile lifetime %d not beyond static %d", seed, mres.Rounds, sres.Rounds)
		}
	}
}

func TestMobileEnergyMoreUniformThanStatic(t *testing.T) {
	nw := testNet(4)
	mobile, _, static, _ := buildSchemes(t, nw)
	m := smallBattery()
	mledRes, err := RunLifetime(mobile, nw.N(), m, 50)
	if err != nil {
		t.Fatal(err)
	}
	sledRes, err := RunLifetime(static, nw.N(), m, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Compare residual spread after the same horizon (neither may have
	// died that early; both summaries are still meaningful).
	if mledRes.Residual.Std >= sledRes.Residual.Std {
		t.Fatalf("mobile residual Std %.3e not below static %.3e",
			mledRes.Residual.Std, sledRes.Residual.Std)
	}
}

func TestStaticLatencyBeatsMobile(t *testing.T) {
	// The other side of the tradeoff: multi-hop relay is orders of
	// magnitude faster per round than a 1 m/s collector.
	nw := testNet(5)
	mobile, _, static, _ := buildSchemes(t, nw)
	spec := collector.DefaultSpec()
	relayDelay := 0.005 // 5 ms per hop
	ml := MeasureLatency(mobile, spec, relayDelay)
	sl := MeasureLatency(static, spec, relayDelay)
	if sl.Seconds >= ml.Seconds {
		t.Fatalf("static latency %.2fs not below mobile %.2fs", sl.Seconds, ml.Seconds)
	}
	if ml.TourM <= 0 || sl.TourM != 0 {
		t.Fatalf("tour lengths: mobile %.1f static %.1f", ml.TourM, sl.TourM)
	}
}

func TestCoverageSemantics(t *testing.T) {
	// Mobile schemes serve everyone; static and straight-line may strand
	// sensors in sparse fields.
	nw := wsn.MustDeploy(wsn.Config{N: 60, FieldSide: 500, Range: 25, Placement: wsn.Clustered, Clusters: 4, Seed: 6})
	sol, err := shdgp.Plan(shdgp.NewProblem(nw), shdgp.DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	mobile := NewMobile("shdg", nw, sol.Plan)
	static := NewStatic(routing.BuildPlan(nw))
	if mobile.Coverage() != 1 {
		t.Fatalf("mobile coverage %v", mobile.Coverage())
	}
	if static.Coverage() >= 1 {
		t.Skip("rare draw: sparse clustered field fully connected")
	}
}

func TestRunLifetimeRejectsBadHorizon(t *testing.T) {
	nw := testNet(8)
	mobile, _, _, _ := buildSchemes(t, nw)
	if _, err := RunLifetime(mobile, nw.N(), smallBattery(), 0); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestStraightLineChargesRelays(t *testing.T) {
	nw := testNet(9)
	_, _, _, straight := buildSchemes(t, nw)
	led := energy.NewLedger(nw.N(), smallBattery())
	straight.ChargeRound(led)
	st := led.ResidualStats()
	if st.Std == 0 {
		t.Fatal("straight-line charging perfectly uniform: relays not charged?")
	}
}
