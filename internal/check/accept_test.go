// Acceptance suite: every plan the real planners produce must satisfy the
// oracles, across ≥50 generated scenarios spanning all four layouts. This
// lives in an external test package because it exercises the planners,
// which sit above internal/check in the import graph.
package check_test

import (
	"context"
	"testing"

	"mobicol/internal/check"
	"mobicol/internal/collector"
	"mobicol/internal/energy"
	"mobicol/internal/engine"
	"mobicol/internal/radio"
	"mobicol/internal/shdgp"
	"mobicol/internal/sim"
)

const acceptScenarios = 52

// acceptScenariosFor sizes the oracle sweep per planner: the exact
// solver only admits tiny instances (candidate/stop limits), so its
// sweep filters the generator down to small deployments.
func acceptScenariosFor(name string) []check.Scenario {
	if name == "exact" {
		return smallScenarios(0xACCE97, 8, 12)
	}
	return check.Scenarios(0xACCE97, acceptScenarios)
}

// smallScenarios generates count deployments with at most maxSensors
// sensors, overshooting the generator so the filter still fills count.
func smallScenarios(seed uint64, count, maxSensors int) []check.Scenario {
	all := check.Scenarios(seed, 8*count)
	out := make([]check.Scenario, 0, count)
	for _, sc := range all {
		if sc.Net.N() > maxSensors {
			continue
		}
		out = append(out, sc)
		if len(out) == count {
			break
		}
	}
	return out
}

// planThrough plans one scenario through a registered engine planner.
func planThrough(t *testing.T, name string, sc check.Scenario) (*engine.Plan, engine.Stats) {
	t.Helper()
	p, ok := engine.Lookup(name)
	if !ok {
		t.Fatalf("planner %q not registered", name)
	}
	pl, st, err := p.Plan(context.Background(), engine.Scenario{Net: sc.Net}, engine.Options{})
	if err != nil {
		t.Fatalf("%s: plan %s: %v", name, sc.Name, err)
	}
	return pl, st
}

// TestOracleAcceptsRegisteredPlanners sweeps every registered planner —
// one loop, no per-algorithm copies — over the generated scenario
// families and requires the plan oracle and the recorded-length check to
// accept every plan. Planners whose stops are not physical upload points
// carry their own UploadDist, so the oracle needs no special cases.
func TestOracleAcceptsRegisteredPlanners(t *testing.T) {
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			for _, sc := range acceptScenariosFor(name) {
				sc := sc
				t.Run(sc.Name, func(t *testing.T) {
					pl, st := planThrough(t, name, sc)
					if err := check.Plan(sc.Net, pl.Tour, check.Options{UploadDist: pl.UploadDist}); err != nil {
						t.Fatal(err)
					}
					if err := check.RecordedLength(pl.Tour, st.Length); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestLedgerOracleAcceptsSimulations runs real lifetime simulations —
// perfect and lossy links, batteries small enough that sensors die — and
// requires the conservation oracle to pass on the resulting ledgers.
func TestLedgerOracleAcceptsSimulations(t *testing.T) {
	model := energy.DefaultModel()
	model.InitialJ = 2e-3 // small battery so deaths happen inside the horizon
	for _, sc := range check.Scenarios(0x1ED6E5, 8) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			sol, err := shdgp.Plan(shdgp.NewProblem(sc.Net), shdgp.DefaultPlannerOptions())
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			lossy, err := sim.NewLossyMobile("shdg-lossy", sc.Net, sol.Plan, radio.Default())
			if err != nil {
				t.Fatal(err)
			}
			schemes := []sim.Scheme{sim.NewMobile("shdg", sc.Net, sol.Plan), lossy}
			for _, s := range schemes {
				res, err := sim.RunLifetime(s, sc.Net.N(), model, 400)
				if err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				if res.Ledger == nil {
					t.Fatalf("%s: result carries no ledger", s.Name())
				}
				if err := check.Ledger(res.Ledger, int(res.Rounds)); err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
			}
		})
	}
}

// TestAdaptiveReplansAreChecked pins the satellite fix: the adaptive mobile
// simulation verifies every replan against the oracle and reports an honest
// served fraction instead of a hardcoded 1.
func TestAdaptiveReplansAreChecked(t *testing.T) {
	model := energy.DefaultModel()
	model.InitialJ = 2e-3
	for _, sc := range check.Scenarios(0xADA9, 4) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := sim.RunAdaptiveMobile(sc.Net, model, 400)
			if err != nil {
				t.Fatalf("adaptive: %v", err)
			}
			if res.ServedAtHalf < 0 || res.ServedAtHalf > 1 {
				t.Fatalf("ServedAtHalf %v outside [0,1]", res.ServedAtHalf)
			}
			// Checked replans serve every survivor, so the honest
			// measurement must still come out at 1.
			if res.ServedAtHalf != 1 {
				t.Fatalf("replanned mobile scheme stranded survivors: ServedAtHalf=%v", res.ServedAtHalf)
			}
		})
	}
}

// TestLossyMobileUnserved pins the other satellite fix: stranded sensors
// are counted, not silently skipped, and malformed arity cannot panic.
func TestLossyMobileUnserved(t *testing.T) {
	sc := check.Scenarios(0x105, 1)[0]
	sol, err := shdgp.Plan(shdgp.NewProblem(sc.Net), shdgp.DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.NewLossyMobile("lossy", sc.Net, sol.Plan, radio.Default())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Unserved(); got != 0 {
		t.Fatalf("full plan reports %d unserved", got)
	}
	// Strand one sensor and truncate the assignment: both must be counted.
	mangled := &collector.TourPlan{Sink: sol.Plan.Sink, Stops: sol.Plan.Stops,
		UploadAt: append([]int(nil), sol.Plan.UploadAt[:sc.Net.N()-1]...)}
	mangled.UploadAt[0] = -1
	mm, err := sim.NewLossyMobile("mangled", sc.Net, mangled, radio.Default())
	if err != nil {
		t.Fatal(err)
	}
	if got := mm.Unserved(); got != 2 {
		t.Fatalf("mangled plan reports %d unserved, want 2", got)
	}
	led := energy.NewLedger(sc.Net.N(), energy.DefaultModel())
	mm.ChargeRound(led) // must not panic on short UploadAt
	if err := check.Ledger(led, 1); err != nil {
		t.Fatal(err)
	}
}
