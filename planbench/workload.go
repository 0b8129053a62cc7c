package main

import (
	"context"
	"fmt"
	"math"

	"mobicol/internal/check"
	"mobicol/internal/collector"
	"mobicol/internal/engine"
	"mobicol/internal/obs"
	"mobicol/internal/replan"
	"mobicol/internal/rng"
	"mobicol/internal/wsn"
)

// paperDensity is n sensors at the paper's evaluation density (100
// sensors per 200 m × 200 m) and range (30 m).
func paperDensity(n int) wsn.Config {
	return wsn.Config{N: n, FieldSide: 200 * math.Sqrt(float64(n)/100), Range: 30}
}

// paperGrid is the E2–E4 sweep without repeated points: N at L=200 m,
// R=30 m; R at N=200; L at N=400.
func paperGrid() []wsn.Config {
	var g []wsn.Config
	for _, n := range []int{100, 200, 300, 400, 500} {
		g = append(g, wsn.Config{N: n, FieldSide: 200, Range: 30})
	}
	for _, r := range []float64{20, 40, 50} {
		g = append(g, wsn.Config{N: 200, FieldSide: 200, Range: r})
	}
	for _, side := range []float64{100, 300, 400, 500} {
		g = append(g, wsn.Config{N: 400, FieldSide: side, Range: 30})
	}
	return g
}

// workload is one set of inputs the benchmark drives through the engine.
type workload struct {
	name string
	why  string
	// planner is the engine registry name every op calls.
	planner string
	// grid lists the uniform deployments cold ops cycle through in
	// order, each with a fresh seed; a warm workload deploys its base on
	// grid[0].
	grid []wsn.Config
	// warmups is the number of untimed warm-up ops per grid point.
	warmups int
	// deltaFrac > 0 makes every op a warm round: apply a fresh delta
	// touching this share of the base's sensors, then repair the base
	// plan for the changed network.
	deltaFrac float64
	// tailPct is the percentile plan_s_tail reports: the highest that
	// leaves at least ten ops beyond it in a run at the recorded op rate,
	// up to 95, or 100 (the slowest op) where a run holds too few ops for
	// any percentile above the median. Above p95, paper-sweep's
	// percentiles fall in the thin upper tail of its slowest grid point,
	// where a host preemption of a few ms moves them: over sets of runs
	// of the same code its p99 spread 0.21 and 0.34 of the median, its
	// p95 0.10-0.11.
	tailPct float64
	// opSeconds is one op's time on two cores when the workload was
	// defined. The input pool holds twice the ops a run is expected to
	// use, so a run does not exhaust it unless the planner gets faster.
	opSeconds float64
}

// workloads returns the benchmark's workloads in BENCHMARK.json order.
func workloads() []workload {
	return []workload{
		{
			name:    "paper-sweep",
			why:     "shdg over the paper's E2-E4 grid: fixed per-call cost, Held-Karp on tiny tours and dense greedy-edge on small ones; thousands of ms-scale plans a run",
			planner: "shdg", grid: paperGrid(), warmups: 4, tailPct: 95, opSeconds: 0.003,
		},
		{
			name:    "dense-10k",
			why:     "shdg at n=10k, paper density: ~1,640 stops keep refine's proxy tours and the final tour on all-pairs greedy-edge, the cliff where refine is most of a plan",
			planner: "shdg", grid: []wsn.Config{{N: 10_000, FieldSide: 2000, Range: 30}}, warmups: 1, tailPct: 100, opSeconds: 2.4,
		},
		{
			name:    "sparse-30k",
			why:     "shdg at n=30k, paper density: ~4,900 stops take the sparse k-nearest construction, bypassing the dense path; cover build and the worker pool show here",
			planner: "shdg", grid: []wsn.Config{paperDensity(30_000)}, warmups: 1, tailPct: 75, opSeconds: 0.5,
		},
		{
			name:    "warm-100k",
			why:     "per-round replanning at n=100k: apply a fresh 1% delta and warm-repair one base plan; runs carry, rehome, recover, splice, improve and skips cover, refine and construction",
			planner: "warm", grid: []wsn.Config{paperDensity(100_000)}, warmups: 1, deltaFrac: 0.01, tailPct: 90, opSeconds: 0.16,
		},
	}
}

// workloadByName looks a workload up by its BENCHMARK.json name.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// poolSize is the number of op inputs a run of the given length prepares:
// twice the expected ops, a whole number of grid cycles, at most maxOps
// when that is positive.
func (w workload) poolSize(seconds float64, maxOps int) int {
	cycles := int(math.Ceil(2 * seconds / w.opSeconds / float64(len(w.grid))))
	if cycles < 1 {
		cycles = 1
	}
	n := cycles * len(w.grid)
	if maxOps > 0 && n > maxOps {
		n = maxOps
	}
	return n
}

// inputs are one run's prepared inputs: a fresh deployment per op (cold
// workloads), or one base plan and a fresh delta per op (warm).
type inputs struct {
	planner  engine.Planner
	nets     []*wsn.Network
	base     *wsn.Network
	basePlan *collector.TourPlan
	deltas   []replan.Delta
}

// prepare builds count op inputs from the seed and runs the untimed
// warm-up pass. The same seed yields the same inputs, and input i does
// not depend on count. When opts.Obs is set, deployments and the warm
// base plan are traced; warm-up ops never are.
func (w workload) prepare(ctx context.Context, seed uint64, count int, opts engine.Options) (*inputs, error) {
	planner, err := engine.Select(w.planner)
	if err != nil {
		return nil, err
	}
	src := rng.New(seed)
	in := &inputs{planner: planner}
	quiet := opts
	quiet.Obs = nil

	if w.deltaFrac > 0 {
		if in.base, err = deploy(w.grid[0], src.Uint64(), opts.Obs); err != nil {
			return nil, err
		}
		cold, err := engine.Select("shdg")
		if err != nil {
			return nil, err
		}
		pl, st, err := cold.Plan(ctx, engine.Scenario{Net: in.base}, opts)
		if err != nil {
			return nil, fmt.Errorf("base plan: %w", err)
		}
		if err := verify(in.base, pl, st); err != nil {
			return nil, fmt.Errorf("base plan: %w", err)
		}
		in.basePlan = pl.Tour
		warm := make([]replan.Delta, w.warmups)
		for i := range warm {
			warm[i] = replan.Perturb(in.base, w.deltaFrac, src.Uint64())
		}
		in.deltas = make([]replan.Delta, count)
		for i := range in.deltas {
			in.deltas[i] = replan.Perturb(in.base, w.deltaFrac, src.Uint64())
		}
		for _, d := range warm {
			// Warm-up results are discarded: the timed loop checks and
			// counts every op, so a failing planner shows up there.
			_, _, _, _ = in.round(ctx, d, quiet)
		}
		return in, nil
	}

	warm := make([]*wsn.Network, 0, w.warmups*len(w.grid))
	for _, g := range w.grid {
		for k := 0; k < w.warmups; k++ {
			nw, err := deploy(g, src.Uint64(), opts.Obs)
			if err != nil {
				return nil, err
			}
			warm = append(warm, nw)
		}
	}
	in.nets = make([]*wsn.Network, count)
	for i := range in.nets {
		if in.nets[i], err = deploy(w.grid[i%len(w.grid)], src.Uint64(), opts.Obs); err != nil {
			return nil, err
		}
	}
	for _, nw := range warm {
		// Discarded like the warm rounds above.
		_, _, _ = planner.Plan(ctx, engine.Scenario{Net: nw}, quiet)
	}
	return in, nil
}

// deploy generates one deployment of cfg from seed, inside a "wsn.deploy"
// span when traced.
func deploy(cfg wsn.Config, seed uint64, tr *obs.Trace) (*wsn.Network, error) {
	sp := tr.Start("wsn.deploy")
	defer sp.End()
	cfg.Seed = seed
	return wsn.Deploy(cfg)
}

// len is the number of prepared op inputs.
func (in *inputs) len() int {
	if in.deltas != nil {
		return len(in.deltas)
	}
	return len(in.nets)
}

// op runs input i through the engine. It returns the network the plan
// must serve: the deployment, or for a warm round the applied network.
func (in *inputs) op(ctx context.Context, i int, opts engine.Options) (*wsn.Network, *engine.Plan, engine.Stats, error) {
	if in.deltas != nil {
		return in.round(ctx, in.deltas[i], opts)
	}
	pl, st, err := in.planner.Plan(ctx, engine.Scenario{Net: in.nets[i]}, opts)
	return in.nets[i], pl, st, err
}

// round applies one delta to the base network and repairs the base plan
// for the result through the engine.
func (in *inputs) round(ctx context.Context, d replan.Delta, opts engine.Options) (*wsn.Network, *engine.Plan, engine.Stats, error) {
	sp := opts.Obs.Start("replan.apply")
	nw, carried, err := d.Apply(in.base, in.basePlan.UploadAt)
	sp.End()
	if err != nil {
		return nil, nil, engine.Stats{}, err
	}
	sc := engine.Scenario{Net: nw, Prev: in.basePlan, Carried: carried}
	pl, st, err := in.planner.Plan(ctx, sc, opts)
	return nw, pl, st, err
}

// release drops input i once its op has run, so the timed loop's live
// heap shrinks as it goes instead of holding every deployment.
func (in *inputs) release(i int) {
	if in.deltas != nil {
		in.deltas[i] = replan.Delta{}
		return
	}
	in.nets[i] = nil
}

// verify is the benchmark's oracle for one op: the plan must pass
// check.Plan against the network it serves, and the stats the engine
// reports must describe that plan.
func verify(nw *wsn.Network, pl *engine.Plan, st engine.Stats) error {
	if pl == nil || pl.Tour == nil {
		return fmt.Errorf("no plan and no error")
	}
	if err := check.Plan(nw, pl.Tour, check.Options{UploadDist: pl.UploadDist}); err != nil {
		return err
	}
	if err := check.RecordedLength(pl.Tour, st.Length); err != nil {
		return err
	}
	if st.Stops != len(pl.Tour.Stops) {
		return fmt.Errorf("stats report %d stops, plan has %d", st.Stops, len(pl.Tour.Stops))
	}
	return nil
}
