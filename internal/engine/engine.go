// Package engine is the planning seam: one Planner interface over every
// tour-planning algorithm in the repository, plus a name-keyed registry
// (registry.go) and adapters for the concrete planners (adapters.go).
//
// The seam exists so the CLIs, the benchmark harness, the verification
// suites, and future long-running services all invoke planning the same
// way — algorithm selection is data (a registry name), not a switch
// statement. Every planner behind the interface owes the same contract,
// enforced mechanically by internal/engine/conformance for each
// registered name:
//
//   - Typed scenario in, executable plan out: a Scenario wraps the
//     deployment (plus optional warm-start state), a Plan wraps the
//     collector.TourPlan with its oracle hooks, and Stats carries the
//     quality numbers the callers report.
//   - Context cancellation and deadlines are honored at phase
//     boundaries: a canceled ctx returns context.Canceled (or
//     context.DeadlineExceeded) promptly, without leaking goroutines,
//     and an uncanceled ctx never changes the planner's output.
//   - Progress streams from internal/obs spans: when Options.Progress
//     is set, every span edge the planner records becomes an Event with
//     a strictly increasing sequence number.
//   - Determinism: the same Scenario plans to a bit-identical Plan at
//     any worker-pool size.
package engine

import (
	"context"
	"fmt"
	"sync"

	"mobicol/internal/collector"
	"mobicol/internal/cover"
	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/par"
	"mobicol/internal/replan"
	"mobicol/internal/shdgp"
	"mobicol/internal/wsn"
)

// Scenario is the typed input to a planner: the deployment to plan for,
// plus optional warm-start state for warm-capable planners.
type Scenario struct {
	// Net is the deployment (required).
	Net *wsn.Network
	// Prev is a previous plan to warm-start from; nil plans cold.
	// Planners that cannot warm-start ignore it.
	Prev *collector.TourPlan
	// Carried maps each sensor of Net to the stop (index into
	// Prev.Stops) it uploaded at before the scenario changed, -1 for
	// sensors with no previous assignment. Nil with a non-nil Prev
	// selects positional carry (replan.CarryPositional).
	Carried []int
}

// Options configures one Plan call. The zero value plans sequentially
// with default settings, no tracing, and no progress stream.
type Options struct {
	// Pool bounds the parallelism the planner may use. Any pool size
	// produces a bit-identical plan; the zero value runs sequentially.
	Pool par.Pool
	// Obs, when non-nil, receives the planner's phase spans and metrics.
	Obs *obs.Trace
	// Progress, when non-nil, receives one Event per span edge the
	// planner records (a trace is created internally when Obs is nil).
	// Events arrive with strictly increasing Seq; the callback runs on
	// the goroutine recording the span and must not call back into the
	// plan that is feeding it.
	Progress func(Event)
	// Strategy selects candidate-stop generation for covering planners
	// (default cover.SensorSites).
	Strategy cover.CandidateStrategy
	// GridSpacing applies to the cover.FieldGrid strategy.
	GridSpacing float64
}

// Event is one streamed progress notification: a planner phase (an
// internal/obs span) starting or finishing.
type Event struct {
	// Planner is the registry name of the planner emitting the event.
	Planner string
	// Phase is the span name ("plan", "candidates", "cover", ...).
	Phase string
	// Span is the span's deterministic id within the plan's trace.
	Span int
	// Seq numbers events within one Plan call, starting at 1 and
	// strictly increasing — the monotonicity the conformance harness
	// pins.
	Seq int
	// Done is false when the phase starts and true when it ends.
	Done bool
}

// Stats carries the quality numbers callers report alongside a plan.
type Stats struct {
	// Length is the closed tour length.
	Length geom.Meters
	// Stops is the number of polling points (sink excluded).
	Stops int
	// Exact is true when the solution is provably optimal.
	Exact bool
	// Cover holds covering-phase statistics, nil for planners without a
	// covering phase (e.g. the CLA sweep baseline).
	Cover *shdgp.PlanStats
	// Warm holds warm-start repair statistics, nil for cold plans.
	Warm *replan.Stats
}

// Plan is a planner's output: the executable tour plus the hooks the
// oracle checks need.
type Plan struct {
	// Tour is the executable tour: ordered stops and the sensor→stop
	// upload assignment.
	Tour *collector.TourPlan
	// Algorithm labels the concrete algorithm that produced the tour
	// (e.g. "shdg-greedy+refine"); it may be finer-grained than the
	// registry name.
	Algorithm string
	// UploadDist, when non-nil, overrides the oracle's upload distance
	// for sensor i: planners whose recorded stops are not the physical
	// upload points (CLA records sweep-line endpoints; the collector
	// uploads at the sensor's projection) expose the true distance here.
	// Wire it into check.Options.UploadDist when verifying the plan.
	UploadDist func(i int) float64
}

// Planner is the engine seam: one planning algorithm behind a uniform,
// context-aware entry point. Implementations must honor the package
// contract (cancellation at phase boundaries, pool-size-independent
// output, progress streaming); engine/conformance verifies it for every
// registered planner.
type Planner interface {
	// Name returns the planner's registry name.
	Name() string
	// Plan computes a tour for the scenario. It returns ctx.Err() when
	// the context is canceled or past its deadline — checked on entry,
	// at every phase boundary, and before returning — and never returns
	// a non-nil Plan alongside a non-nil error.
	Plan(ctx context.Context, sc Scenario, opts Options) (*Plan, Stats, error)
}

// planFunc is the concrete planner shape the adapters use: a named run
// function wrapped with the shared contract scaffolding (entry/exit
// cancellation checks, scenario validation, progress-stream wiring).
type planFunc struct {
	name string
	run  func(ctx context.Context, sc Scenario, opts Options) (*Plan, Stats, error)
}

// Name returns the planner's registry name.
func (p *planFunc) Name() string { return p.name }

// Plan applies the shared contract around the adapter's run function.
func (p *planFunc) Plan(ctx context.Context, sc Scenario, opts Options) (*Plan, Stats, error) {
	if sc.Net == nil {
		return nil, Stats{}, fmt.Errorf("engine: %s: scenario has no network", p.name)
	}
	if err := sc.Net.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("engine: %s: %w", p.name, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	if opts.Progress != nil {
		if opts.Obs == nil {
			opts.Obs = obs.New(nil)
		}
		sink := &progressSink{planner: p.name, emit: opts.Progress}
		opts.Obs.SetSpanHook(sink.hook)
		defer opts.Obs.SetSpanHook(nil)
	}
	pl, st, err := p.run(ctx, sc, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	return pl, st, nil
}

// progressSink converts span edges into ordered Events. Emission happens
// under its lock so sequence numbers are strictly increasing in the
// order the callback observes them, even when phases overlap across
// worker goroutines.
type progressSink struct {
	mu      sync.Mutex
	seq     int
	planner string
	emit    func(Event)
}

// hook is the obs.SpanHook feeding the sink.
func (ps *progressSink) hook(name string, id int, end bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.seq++
	ps.emit(Event{Planner: ps.planner, Phase: name, Span: id, Seq: ps.seq, Done: end})
}
