// Fixture for the ctxflow analyzer: a Planner seam whose helpers
// launder, drop, or strand the request context. Trace/Span model the
// obs phase-boundary span shape by name, which is how isSpanStart
// matches them without importing internal/obs.
package fixture

import "context"

// Trace mirrors obs.Trace.
type Trace struct{}

// Span mirrors obs.Span.
type Span struct{}

// Start opens a phase span.
func (t *Trace) Start(name string) *Span { return &Span{} }

// Child opens a sub-span.
func (s *Span) Child(name string) *Span { return &Span{} }

// End closes the span.
func (s *Span) End() {}

// Scenario mirrors engine.Scenario.
type Scenario struct {
	Items []int
}

// Options mirrors engine.Options.
type Options struct {
	Obs *Trace
}

// Result is the plan payload.
type Result struct{ N int }

// Planner is the root-discovery shape.
type Planner interface {
	Plan(ctx context.Context, sc Scenario, opts Options) (*Result, error)
}

type launderer struct{}

// Plan trips the laundering rule through a helper.
func (l *launderer) Plan(ctx context.Context, sc Scenario, opts Options) (*Result, error) {
	return mint(sc)
}

func mint(sc Scenario) (*Result, error) {
	ctx := context.Background() // want "severs the request's cancellation chain"
	return &Result{N: consume(ctx, sc)}, nil
}

func consume(ctx context.Context, sc Scenario) int {
	if ctx.Err() != nil {
		return 0
	}
	return len(sc.Items)
}

type dropper struct {
	bg context.Context
}

// Plan trips the dropping rule: the context handed down is not derived
// from the incoming one.
func (d *dropper) Plan(ctx context.Context, sc Scenario, opts Options) (*Result, error) {
	return &Result{N: consume(d.bg, sc)}, nil // want "not derived from its ctx parameter"
}

type strander struct{}

// Plan trips the stranding rule twice, through two helpers.
func (s *strander) Plan(ctx context.Context, sc Scenario, opts Options) (*Result, error) {
	spanPhase(ctx, sc, opts)
	return &Result{N: loopPhase(ctx, sc)}, nil
}

// spanPhase starts a phase span but never consults ctx.
func spanPhase(ctx context.Context, sc Scenario, opts Options) {
	root := opts.Obs.Start("plan") // want "takes ctx but never consults it"
	defer root.End()
}

// loopPhase runs an input-scaled loop but never consults ctx.
func loopPhase(ctx context.Context, sc Scenario) int {
	total := 0
	for _, v := range sc.Items { // want "takes ctx but never consults it"
		total += v
	}
	return total
}

type threaded struct{}

// Plan is the negative case: the span phase checks ctx, the derived
// context chain counts, and the loop helper receives the real ctx.
func (t *threaded) Plan(ctx context.Context, sc Scenario, opts Options) (*Result, error) {
	sub, cancel := context.WithCancel(ctx)
	defer cancel()
	root := opts.Obs.Start("plan")
	defer root.End()
	if err := sub.Err(); err != nil {
		return nil, err
	}
	return &Result{N: consume(sub, sc)}, nil
}

type looper struct{}

// Plan trips the stranding rule through the loop shapes the phase search
// recognizes, and launders a minted context passed straight to a callee
// (one finding: it is not also reported as dropped).
func (l *looper) Plan(ctx context.Context, sc Scenario, opts Options) (*Result, error) {
	n := countPhase(ctx, &sc) + tailPhase(ctx, [][]int{sc.Items}) + idlePhase(ctx, len(sc.Items), watch{})
	return &Result{N: n + consume(context.TODO(), sc)}, nil // want "calls context.TODO()"
}

// countPhase loops to a bound derived from its input but never consults ctx.
func countPhase(ctx context.Context, sc *Scenario) int {
	total := 0
	for i := 0; i < len((*sc).Items); i++ { // want "loops over its input"
		total += (*sc).Items[i]
	}
	return total
}

// tailPhase ranges over part of one row of its input, after a nested
// literal the phase search does not descend into.
func tailPhase(ctx context.Context, rows [][]int) int {
	total := 0
	add := func(v int) { total += v }
	for _, v := range rows[0][1:] { // want "ranges over its input"
		add(v)
	}
	return total
}

// watch has a Start method but is not a phase span.
type watch struct{}

// Start resets the watch.
func (watch) Start() {}

// idlePhase is the negative case: ctx is unread, but its Start calls open
// no span and none of its loop bounds is an input.
func idlePhase(ctx context.Context, n int, st interface{ Start() }) int {
	var w watch
	w.Start()
	st.Start()
	total := 0
	for i := 0; i < max(n, 8); i++ {
		total += i
	}
	for i := 8; i > 0; i-- {
		total += i
	}
	for total == 1 {
		total++
	}
	for done := false; !done; {
		done = true
	}
	return total
}
