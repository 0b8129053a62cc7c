package bench

import (
	"context"

	"mobicol/internal/check"
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
	// per CPU. Every value produces identical tables (trial seeds are
	// fixed per index and reductions are ordered).
	Workers int
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

// planChecked plans nw with the registered planner p and holds the plan
// to the check.Plan oracle. Planners whose stops are not the upload
// points (CLA) carry their upload distance on the plan.
func planChecked(p engine.Planner, nw *wsn.Network) (engine.Stats, error) {
	pl, st, err := p.Plan(context.Background(), engine.Scenario{Net: nw}, engine.Options{})
	if err == nil {
		err = check.Plan(nw, pl.Tour, check.Options{UploadDist: pl.UploadDist})
	}
	return st, err
}
