package sim

import (
	"testing"

	"mobicol/internal/collector"
	"mobicol/internal/shdgp"
)

func diversePlans(t *testing.T, seed uint64, k int) (*Rotation, *Mobile) {
	t.Helper()
	nw := testNet(seed)
	sols, err := shdgp.PlanDiverse(shdgp.NewProblem(nw), k)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*collector.TourPlan, len(sols))
	for i, s := range sols {
		plans[i] = s.Plan
	}
	rot, err := NewRotation("shdg-rotate", nw, plans)
	if err != nil {
		t.Fatal(err)
	}
	return rot, NewMobile("shdg", nw, plans[0])
}

func TestRotationSchemeBasics(t *testing.T) {
	rot, _ := diversePlans(t, 30, 4)
	var _ Scheme = rot
	if rot.Coverage() != 1 {
		t.Fatalf("rotation coverage %v", rot.Coverage())
	}
	if rot.TourLength() <= 0 {
		t.Fatal("rotation tour length")
	}
	spec := collector.DefaultSpec()
	if rot.RoundTime(spec, 0) <= 0 {
		t.Fatal("rotation round time")
	}
}

func TestRotationUsesAllPlansAcrossRounds(t *testing.T) {
	rot, _ := diversePlans(t, 31, 3)
	if len(rot.Plans) < 2 {
		t.Skip("field insensitive to tie-break: only one distinct plan")
	}
	// Two consecutive rounds must charge along different plans: compare
	// the residual deltas.
	m := smallBattery()
	a, err := RunLifetime(rot, rot.net.N(), m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != 2 {
		t.Fatalf("horizon run %d rounds", a.Rounds)
	}
}

func TestRotationExtendsLifetime(t *testing.T) {
	wins, total := 0, 0
	for seed := uint64(32); seed <= 37; seed++ {
		rot, single := diversePlans(t, seed, 4)
		if len(rot.Plans) < 2 {
			continue
		}
		m := smallBattery()
		a, err := RunLifetime(rot, rot.net.N(), m, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunLifetime(single, rot.net.N(), m, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if a.Rounds >= b.Rounds {
			wins++
		}
	}
	if total == 0 {
		t.Skip("no multi-plan fields drawn")
	}
	// Rotation should at least match the single plan in the majority of
	// draws (it averages the worst-case upload distance).
	if wins*2 < total {
		t.Fatalf("rotation matched/beat single plan in only %d of %d fields", wins, total)
	}
}

func TestPlanDiverseDistinctAndValid(t *testing.T) {
	nw := testNet(38)
	p := shdgp.NewProblem(nw)
	sols, err := shdgp.PlanDiverse(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) == 0 {
		t.Fatal("no plans")
	}
	for i, s := range sols {
		if err := s.Validate(p); err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
	}
}

func TestPlanDiverseRejectsBadK(t *testing.T) {
	nw := testNet(39)
	if _, err := shdgp.PlanDiverse(shdgp.NewProblem(nw), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestNewRotationRejectsBadInput(t *testing.T) {
	nw := testNet(40)
	if _, err := NewRotation("x", nw, nil); err == nil {
		t.Fatal("empty plan set accepted")
	}
	bad := &collector.TourPlan{Sink: nw.Sink, UploadAt: make([]int, 3)}
	if _, err := NewRotation("x", nw, []*collector.TourPlan{bad}); err == nil {
		t.Fatal("mismatched plan accepted")
	}
}
