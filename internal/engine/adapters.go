package engine

import (
	"context"

	"mobicol/internal/baselines"
	"mobicol/internal/replan"
	"mobicol/internal/shdgp"
	"mobicol/internal/tsp"
)

// The adapters below wrap each concrete planning entry point in the
// Planner contract and register it at init. Registry names are the CLI's
// -algo vocabulary:
//
//	shdg       internal/shdgp.Plan          (heuristic: cover + TSP + refine)
//	exact      internal/shdgp.PlanExact     (optimal within its size limits)
//	visit-all  internal/shdgp.PlanVisitAll  (d=0 baseline: tour every sensor)
//	sweep      internal/shdgp.PlanSweep     (SPT-preorder covering ablation)
//	cla        internal/baselines.PlanCLA   (paper's covering-line sweep)
//	warm       internal/replan.Repair       (warm-start repair; cold = shdg)
//
// The straight-line baseline is deliberately absent: it produces a
// multi-hop relay structure, not a collector.TourPlan, so it cannot
// honor the Plan contract (see DESIGN.md).
func init() {
	Register("shdg", &planFunc{name: "shdg", run: runSHDG})
	Register("exact", &planFunc{name: "exact", run: runExact})
	Register("visit-all", &planFunc{name: "visit-all", run: runVisitAll})
	Register("sweep", &planFunc{name: "sweep", run: runSweep})
	Register("cla", &planFunc{name: "cla", run: runCLA})
	Register("warm", &planFunc{name: "warm", run: runWarm})
}

// problem assembles the shdgp covering problem for a scenario.
func problem(sc Scenario, opts Options) *shdgp.Problem {
	p := shdgp.NewProblem(sc.Net)
	p.Pool = opts.Pool
	p.Strategy = opts.Strategy
	p.GridSpacing = opts.GridSpacing
	return p
}

// solutionResult converts a shdgp.Solution into the engine's Plan/Stats
// pair. Every shdgp planner fills the Stats block (visit-all and sweep
// leave parts of it zero), so Cover is always present for them.
func solutionResult(sol *shdgp.Solution) (*Plan, Stats) {
	st := Stats{
		Length: sol.Length,
		Stops:  sol.Stops(),
		Exact:  sol.Exact,
		Cover:  &sol.Stats,
	}
	return &Plan{Tour: sol.Plan, Algorithm: sol.Algorithm}, st
}

// runSHDG adapts the heuristic planner, which checks ctx at its phase
// boundaries (candidates → cover → tour → refine → tsp) and before each
// refine pass.
func runSHDG(ctx context.Context, sc Scenario, opts Options) (*Plan, Stats, error) {
	po := shdgp.DefaultPlannerOptions()
	po.Obs = opts.Obs
	sol, err := shdgp.Plan(ctx, problem(sc, opts), po)
	if err != nil {
		return nil, Stats{}, err
	}
	pl, st := solutionResult(sol)
	return pl, st, nil
}

// runExact adapts the exact solver, which checks ctx inside its
// heuristic incumbent's phases and every 4,096 enumeration nodes.
func runExact(ctx context.Context, sc Scenario, opts Options) (*Plan, Stats, error) {
	root := opts.Obs.Start("plan")
	defer root.End()
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	sol, err := shdgp.PlanExact(ctx, problem(sc, opts))
	if err != nil {
		return nil, Stats{}, err
	}
	pl, st := solutionResult(sol)
	return pl, st, nil
}

// runVisitAll adapts the d=0 visit-every-sensor baseline. The span shape
// (root "plan" with a "tsp" child carrying the solver stages) matches
// what the benchmark harness has always recorded for this algorithm.
func runVisitAll(ctx context.Context, sc Scenario, opts Options) (*Plan, Stats, error) {
	root := opts.Obs.Start("plan")
	defer root.End()
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	sp := root.Child("tsp")
	tourOpts := tsp.DefaultOptions()
	tourOpts.Obs = sp
	sol, err := shdgp.PlanVisitAll(problem(sc, opts), tourOpts)
	sp.End()
	if err != nil {
		return nil, Stats{}, err
	}
	pl, st := solutionResult(sol)
	return pl, st, nil
}

// runSweep adapts the SPT-preorder covering ablation (E8).
func runSweep(ctx context.Context, sc Scenario, opts Options) (*Plan, Stats, error) {
	root := opts.Obs.Start("plan")
	defer root.End()
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	sp := root.Child("tsp")
	tourOpts := tsp.DefaultOptions()
	tourOpts.Obs = sp
	sol, err := shdgp.PlanSweep(problem(sc, opts), tourOpts)
	sp.End()
	if err != nil {
		return nil, Stats{}, err
	}
	pl, st := solutionResult(sol)
	return pl, st, nil
}

// runCLA adapts the paper's covering-line sweep baseline. CLA stops are
// sweep-line endpoints, not upload points, so the plan carries the true
// per-sensor upload distance for the oracle — materialized into a fresh
// slice, because the returned Plan outlives the request and must not
// retain the scenario's network.
func runCLA(ctx context.Context, sc Scenario, opts Options) (*Plan, Stats, error) {
	root := opts.Obs.Start("plan")
	defer root.End()
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	nw := sc.Net
	tour, err := baselines.PlanCLA(nw)
	if err != nil {
		return nil, Stats{}, err
	}
	dists := make([]float64, nw.N())
	for i := range dists {
		dists[i] = baselines.CLAUploadDistance(nw, tour, i)
	}
	pl := &Plan{
		Tour:       tour,
		Algorithm:  "cla",
		UploadDist: func(i int) float64 { return dists[i] },
	}
	return pl, Stats{Length: tour.Length(), Stops: len(tour.Stops)}, nil
}

// runWarm adapts the warm-start repair. A scenario without a previous
// plan falls back to the cold heuristic; with one, the repair carries
// assignments forward (positionally when the scenario does not say
// otherwise) and only replans what the scenario change dirtied.
func runWarm(ctx context.Context, sc Scenario, opts Options) (*Plan, Stats, error) {
	if sc.Prev == nil {
		return runSHDG(ctx, sc, opts)
	}
	carried := sc.Carried
	if carried == nil {
		carried = replan.CarryPositional(sc.Prev, sc.Net.N())
	}
	ro := replan.Options{Pool: opts.Pool, Obs: opts.Obs}
	tour, rst, err := replan.Repair(ctx, sc.Net, sc.Prev, carried, ro)
	if err != nil {
		return nil, Stats{}, err
	}
	st := Stats{Length: tour.Length(), Stops: len(tour.Stops), Warm: &rst}
	return &Plan{Tour: tour, Algorithm: "warm-repair"}, st, nil
}
