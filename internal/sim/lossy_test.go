package sim

import (
	"context"
	"math"
	"slices"
	"testing"

	"mobicol/internal/collector"
	"mobicol/internal/energy"
	"mobicol/internal/geom"
	"mobicol/internal/radio"
	"mobicol/internal/routing"
	"mobicol/internal/shdgp"
	"mobicol/internal/wsn"
)

func lossyPair(t *testing.T, seed uint64, rm radio.Model) (*LossyMobile, *LossyStatic, *wsn.Network) {
	t.Helper()
	nw := wsn.MustDeploy(wsn.Config{N: 150, FieldSide: 200, Range: 30, Seed: seed})
	sol, err := shdgp.Plan(context.Background(), shdgp.NewProblem(nw), shdgp.DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	mob, err := NewLossyMobile("shdg-lossy", nw, sol.Plan, rm)
	if err != nil {
		t.Fatal(err)
	}
	static, err := NewLossyStatic(routing.BuildPlan(nw), rm)
	if err != nil {
		t.Fatal(err)
	}
	return mob, static, nw
}

// TestLossySchemesRejectInvalidRadio pins that both lossy constructors
// refuse a model radio.Model.Validate rejects. Unchecked, a negative
// retry budget makes ExpectedTx 0, so lossy uploads would cost nothing,
// and a zero width makes PRR NaN at d = D50·r.
func TestLossySchemesRejectInvalidRadio(t *testing.T) {
	nw := wsn.MustDeploy(wsn.Config{N: 30, FieldSide: 100, Range: 30, Seed: 1})
	sol, err := shdgp.Plan(context.Background(), shdgp.NewProblem(nw), shdgp.DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	routes := routing.BuildPlan(nw)
	for _, tc := range []struct {
		name string
		rm   radio.Model
	}{
		{"negative retries", radio.Model{D50: 0.95, Width: 0.08, MaxRetries: -1}},
		{"zero width", radio.Model{D50: 0.95, Width: 0, MaxRetries: 3}},
	} {
		if m, err := NewLossyMobile("lossy", nw, sol.Plan, tc.rm); err == nil {
			d := tc.rm.D50 * nw.Range
			t.Errorf("%s: NewLossyMobile accepted the model (ExpectedTx %v, PRR %v at d = D50·r)",
				tc.name, m.Radio.ExpectedTx(d, nw.Range), m.Radio.PRR(d, nw.Range))
		}
		if _, err := NewLossyStatic(routes, tc.rm); err == nil {
			t.Errorf("%s: NewLossyStatic accepted the model", tc.name)
		}
	}
}

func TestPerfectRadioMatchesLosslessCharging(t *testing.T) {
	mob, _, nw := lossyPair(t, 1, radio.Perfect())
	sol, err := shdgp.Plan(context.Background(), shdgp.NewProblem(nw), shdgp.DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	ideal := NewMobile("shdg", nw, sol.Plan)
	m := smallBattery()
	a := energy.NewLedger(nw.N(), m)
	b := energy.NewLedger(nw.N(), m)
	mob.ChargeRound(a)
	ideal.ChargeRound(b)
	for i := 0; i < nw.N(); i++ {
		if math.Abs(float64(a.Residual[i]-b.Residual[i])) > 1e-15 {
			t.Fatalf("perfect radio diverges from lossless at node %d", i)
		}
	}
	if mob.DeliveryRatio() != 1 {
		t.Fatalf("perfect radio delivery %v", mob.DeliveryRatio())
	}
}

func TestLossyCostsMoreThanPerfect(t *testing.T) {
	perfect, _, nw := lossyPair(t, 2, radio.Perfect())
	lossy, _, _ := lossyPair(t, 2, radio.Default())
	m := smallBattery()
	a := energy.NewLedger(nw.N(), m)
	b := energy.NewLedger(nw.N(), m)
	perfect.ChargeRound(a)
	lossy.ChargeRound(b)
	if b.ResidualStats().Mean > a.ResidualStats().Mean {
		t.Fatal("lossy links spent less energy than perfect links")
	}
}

func TestLossyDeliveryRatios(t *testing.T) {
	mob, static, _ := lossyPair(t, 3, radio.Default())
	dm, ds := mob.DeliveryRatio(), static.DeliveryRatio()
	if dm <= 0 || dm > 1 || ds <= 0 || ds > 1 {
		t.Fatalf("ratios out of range: mobile %v static %v", dm, ds)
	}
	// End-to-end chains multiply per-hop losses; single-hop uploads do
	// not, so the mobile ratio dominates.
	if dm < ds {
		t.Fatalf("mobile delivery %v below static %v", dm, ds)
	}
}

func TestLossyStaticChargesReceivers(t *testing.T) {
	_, static, nw := lossyPair(t, 4, radio.Default())
	led := energy.NewLedger(nw.N(), smallBattery())
	static.ChargeRound(led)
	// Relays (hops[i] == 1 sensors with children) must have paid rx costs;
	// total spend must exceed a tx-only accounting.
	spent := 0.0
	for _, r := range led.Residual {
		spent += float64(smallBattery().InitialJ - r)
	}
	txOnly := 0.0
	for i := 0; i < nw.N(); i++ {
		if static.Plan.Connected(i) {
			d := static.hopDist(i)
			txOnly += static.Radio.ExpectedTx(d, nw.Range) * float64(led.Model.TxCost(d)) * float64(static.Plan.Load[i])
		}
	}
	if spent <= txOnly {
		t.Fatalf("spend %v does not include receiver costs (tx-only %v)", spent, txOnly)
	}
}

func TestLossyLifetimeOrderingHolds(t *testing.T) {
	mob, static, nw := lossyPair(t, 5, radio.Default())
	m := smallBattery()
	a, err := RunLifetime(mob, nw.N(), m, 500000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLifetime(static, nw.N(), m, 500000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds <= b.Rounds {
		t.Fatalf("lossy mobile lifetime %d not beyond static %d", a.Rounds, b.Rounds)
	}
}

func TestLossySchemeInterfaces(t *testing.T) {
	mob, static, _ := lossyPair(t, 6, radio.Default())
	var _ Scheme = mob
	var _ Scheme = static
	if mob.TourLength() <= 0 || static.TourLength() != 0 {
		t.Fatal("tour lengths wrong")
	}
	if mob.Coverage() != 1 {
		t.Fatalf("mobile coverage %v", mob.Coverage())
	}
}

// TestOutOfRangeUploadStopIsUnserved: an UploadAt entry outside
// [0, len(Stops)) counts as unserved everywhere a plan is read — served
// counts, per-stop loads, coverage, delivery and charging — instead of
// counting as served in some places and panicking in others.
func TestOutOfRangeUploadStopIsUnserved(t *testing.T) {
	nw := wsn.New([]geom.Point{geom.Pt(10, 10), geom.Pt(20, 10)}, geom.Pt(0, 0), 30, geom.Square(50))
	plan := &collector.TourPlan{Sink: nw.Sink, Stops: []geom.Point{geom.Pt(20, 10)}, UploadAt: []int{1, 0}}
	if got := plan.Served(); got != 1 {
		t.Errorf("Served() = %d, want 1", got)
	}
	if got := plan.SensorsAt(); !slices.Equal(got, []int{1}) {
		t.Errorf("SensorsAt() = %v, want [1]", got)
	}
	mob := NewMobile("shdg", nw, plan)
	lossy, err := NewLossyMobile("lossy", nw, plan, radio.Perfect())
	if err != nil {
		t.Fatal(err)
	}
	rot, err := NewRotation("rot", nw, []*collector.TourPlan{plan})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{mob, lossy, rot} {
		if got := s.Coverage(); got != 0.5 {
			t.Errorf("%s: Coverage() = %v, want 0.5", s.Name(), got)
		}
		led := energy.NewLedger(nw.N(), energy.DefaultModel())
		s.ChargeRound(led)
		if led.SpentJ(0) != 0 {
			t.Errorf("%s: unserved sensor 0 spent %v J", s.Name(), led.SpentJ(0))
		}
		if !(led.SpentJ(1) > 0) {
			t.Errorf("%s: served sensor 1 spent nothing", s.Name())
		}
	}
	if got := lossy.DeliveryRatio(); got != 0.5 {
		t.Errorf("DeliveryRatio() = %v, want 0.5", got)
	}
}
