package bench

import (
	"context"
	"fmt"

	"mobicol/internal/baselines"
	"mobicol/internal/check"
	"mobicol/internal/collector"
	"mobicol/internal/engine"
	"mobicol/internal/par"
	"mobicol/internal/shdgp"
	"mobicol/internal/wsn"
)

// Config scales every experiment. The paper averages 500 random topologies
// per point; the default here is lighter so tables regenerate in seconds,
// and cmd/mdgbench -trials 500 reproduces the paper-scale averaging.
type Config struct {
	// Trials is the number of random topologies per parameter point.
	Trials int
	// Seed offsets the per-trial deployment seeds, making every table
	// reproducible and every trial independent.
	Seed uint64
	// Quick shrinks sweep ranges for use inside testing.B loops.
	Quick bool
	// Workers bounds the harness's per-trial fan-out: 1 runs trials
	// sequentially, n > 1 uses n workers, and <= 0 selects one worker
	// per CPU. Every value produces identical tables and quality fields
	// (trial seeds are fixed per index and reductions are ordered).
	Workers int
	// Check verifies every plan the experiment tables and the planner
	// benchmark produce against the internal/check invariant oracles and
	// aborts on the first violation. The equivalence tests run with it
	// on; cmd/mdgbench exposes it as -check. ScaleBenchmarks checks every
	// plan whatever its value.
	Check bool
}

func (c Config) trials() int {
	if c.Trials <= 0 {
		return 30
	}
	return c.Trials
}

func (c Config) pool() par.Pool { return par.Workers(c.Workers) }

// deploy builds the trial's network. The experiment tables only use
// known-good parameters, so MustDeploy is safe here.
func deploy(n int, side, r float64, seed uint64) *wsn.Network {
	return wsn.MustDeploy(wsn.Config{N: n, FieldSide: side, Range: r, Seed: seed})
}

// planSHDG runs the default heuristic planner.
func planSHDG(nw *wsn.Network) (*shdgp.Solution, error) {
	return shdgp.Plan(context.Background(), shdgp.NewProblem(nw), shdgp.DefaultPlannerOptions())
}

// checkEnginePlan verifies an engine-produced plan against the invariant
// oracles when cfg.Check is set; the plan's own UploadDist hook covers
// planners (CLA) whose recorded stops are not the physical upload points.
func (c Config) checkEnginePlan(name string, nw *wsn.Network, pl *engine.Plan) error {
	if !c.Check {
		return nil
	}
	if err := check.Plan(nw, pl.Tour, check.Options{UploadDist: pl.UploadDist}); err != nil {
		return fmt.Errorf("bench: %s: %w", name, err)
	}
	return nil
}

// checkPlan verifies one harness-produced plan against the invariant
// oracles when cfg.Check is set. algo selects the oracle options: CLA
// plans record sweep-line endpoints as stops, so their single-hop check
// uses the perpendicular upload distance.
func (c Config) checkPlan(algo string, nw *wsn.Network, plan *collector.TourPlan) error {
	if !c.Check {
		return nil
	}
	opts := check.Options{}
	if algo == "cla" {
		opts.UploadDist = func(i int) float64 {
			return baselines.CLAUploadDistance(nw, plan, i)
		}
	}
	if err := check.Plan(nw, plan, opts); err != nil {
		return fmt.Errorf("bench: %s: %w", algo, err)
	}
	return nil
}
