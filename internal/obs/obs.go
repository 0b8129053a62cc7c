// Package obs is the repo's observability layer: hierarchical phase
// spans, typed metrics, and a deterministic JSONL event sink for the
// planner and simulator hot paths.
//
// Design constraints, in order:
//
//  1. Determinism. Every instrumented package (cover, tsp, shdgp, sim)
//     is subject to the mdglint determinism gate: two runs on the same
//     seed must produce identical algorithmic output. Trace events
//     therefore separate *semantic* fields (span names, ids, sequence
//     numbers, counters — all derived from the algorithm's own state)
//     from *timing* fields. Timing is carried exclusively in the keys
//     "t_ns" and "dur_ns", and CanonicalLine strips exactly those, so
//     two traces of the same run compare equal after canonicalisation.
//     This package is the only one allowed to read the wall clock (the
//     determinism analyzer's allowlist enforces that), and the clock
//     never influences which events are emitted or in what order.
//
//  2. Zero cost when disabled. Every method is safe on nil receivers:
//     a nil *Trace yields nil *Span children and nil metrics, and all
//     their methods are no-ops, so instrumented hot paths pay one
//     pointer test per call when tracing is off.
//
//  3. Zero allocations when enabled, at steady state. Span enter/exit
//     is on the planners' hot path (//mdglint:hotpath roots below), so
//     ended spans return to a per-trace free list, field slices and the
//     JSONL line buffer are reused, and the encoder never touches fmt
//     or encoding/json. Once the pools have grown, a Start/Child/Set*/
//     End round trip allocates nothing — pinned by alloccheck and
//     TestHotPathSteadyStateZeroAllocs (BenchmarkSpanSteadyState
//     prints the count).
//     The flip side is an ownership rule: a *Span is dead after End —
//     using it afterwards is a no-op at best and, once the trace has
//     recycled it, would write into an unrelated span.
//
//  4. Stdlib only, like the rest of the module.
//
// Typical wiring (see cmd/mdgplan):
//
//	tr, _ := obs.New(file)          // or obs.New(nil) for aggregate-only
//	opts.Obs = tr
//	... run the planner ...
//	err := tr.Close()               // flush events + metric snapshot
//	report.Write(os.Stderr, tr)     // human summary table
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Trace owns an event stream and its metric registry. The zero value is
// not useful; construct with New. All methods are nil-safe and
// goroutine-safe.
type Trace struct {
	mu     sync.Mutex
	w      io.Writer // nil: aggregate-only (summary + registry, no JSONL)
	reg    *Registry
	start  time.Time
	nextID int // span ids, 1-based; 0 means "no parent"
	seq    int // event sequence numbers, 1-based
	err    error
	closed bool
	agg    map[string]*SpanStat
	free   []*Span  // recycled spans; top of stack is the hottest
	line   jsonlBuf // reusable event-encoding buffer (guarded by mu)
	hook   SpanHook // span lifecycle observer (guarded by mu; invoked outside it)
}

// SpanHook observes span lifecycle edges: it is called once when a span
// starts (end=false) and once when it ends (end=true), with the span's
// name and deterministic id. Hooks run outside the trace's lock on the
// goroutine that started or ended the span, so a hook may itself use the
// trace; concurrent spans mean a hook must be safe for concurrent calls.
// The engine seam turns these edges into streamed progress events.
type SpanHook func(name string, id int, end bool)

// SetSpanHook installs fn as the trace's span hook (nil removes it). One
// hook is active at a time; installing a hook while spans are in flight
// is safe, but edges that already passed are not replayed. Nil-safe.
func (t *Trace) SetSpanHook(fn SpanHook) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.hook = fn
	t.mu.Unlock()
}

// New returns a Trace writing JSONL events to w. A nil w is valid and
// keeps only in-memory aggregates (span summary and metric registry),
// which is what -metrics without -trace uses.
func New(w io.Writer) *Trace {
	// time.Now is legal here and only here: internal/obs is the
	// determinism analyzer's wall-clock allowlist, and every reading
	// ends up in the strippable t_ns/dur_ns fields.
	return &Trace{
		w:     w,
		reg:   NewRegistry(),
		start: time.Now(),
		agg:   make(map[string]*SpanStat),
	}
}

// Registry returns the trace's metric registry (nil for a nil trace).
func (t *Trace) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Start opens a root-level span. End it to emit its event.
func (t *Trace) Start(name string) *Span {
	return t.newSpan(name, 0)
}

// newSpan is the span-enter hot path: it assigns the next id and
// recycles a span from the free list, allocating only while the pool
// grows to the trace's maximum concurrent span depth.
//
//mdglint:hotpath
func (t *Trace) newSpan(name string, parent int) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	hook := t.hook
	var s *Span
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	}
	t.mu.Unlock()
	if s == nil {
		//mdglint:allow-alloc(span pool growth: one allocation per unit of concurrent span depth, recycled forever after)
		s = &Span{}
	}
	s.t = t
	s.name = name
	s.id = id
	s.parent = parent
	s.fields = s.fields[:0]
	s.ended = false
	if hook != nil {
		hook(name, id, false)
	}
	s.begin = time.Now()
	return s
}

// SpanStat is one row of the span summary: how often a span name was
// entered and the total wall time spent inside it.
type SpanStat struct {
	Name    string
	Count   int
	TotalNs int64
}

// Summary returns per-span-name aggregates sorted by name. It is valid
// before and after Close, and returns nil for a nil trace.
func (t *Trace) Summary() []SpanStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.agg))
	//mdglint:ignore determinism keys are collected and then sorted; the emitted order is independent of map iteration order
	for name := range t.agg {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]SpanStat, 0, len(names))
	for _, name := range names {
		out = append(out, *t.agg[name])
	}
	return out
}

// Close emits one "metric" event per registry entry (sorted by name, so
// the tail of the trace is deterministic) and returns the first error
// seen on the stream. Closing a nil or already-closed trace is a no-op.
func (t *Trace) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.err
	}
	t.closed = true
	snap := t.reg.Snapshot()
	for _, c := range snap.Counters {
		t.emitLocked(encodeCounter(&t.line, t.nextSeqLocked(), c))
	}
	for _, g := range snap.Gauges {
		t.emitLocked(encodeGauge(&t.line, t.nextSeqLocked(), g))
	}
	for _, h := range snap.Hists {
		t.emitLocked(encodeHist(&t.line, t.nextSeqLocked(), h))
	}
	return t.err
}

func (t *Trace) nextSeqLocked() int {
	t.seq++
	return t.seq
}

// emitLocked writes one already-encoded JSONL line. Callers hold t.mu.
func (t *Trace) emitLocked(line []byte) {
	if t.w == nil || t.err != nil {
		return
	}
	if _, err := t.w.Write(line); err != nil {
		//mdglint:allow-alloc(trace write failure path; never taken on a healthy stream)
		t.err = fmt.Errorf("obs: trace write: %w", err)
	}
}

// endSpan is the span-exit hot path: it folds the span's duration into
// the aggregate, encodes its event into the reused line buffer, and
// recycles the span. The wall clock is read before taking the lock so
// contention never inflates a span's own duration.
//
//mdglint:hotpath
func (t *Trace) endSpan(s *Span) {
	now := time.Now()
	durNs := now.Sub(s.begin).Nanoseconds()
	tNs := s.begin.Sub(t.start).Nanoseconds()
	name, id := s.name, s.id
	t.mu.Lock()
	st := t.agg[s.name]
	if st == nil {
		//mdglint:allow-alloc(one aggregate row per distinct span name, reused for every later span)
		st = &SpanStat{Name: s.name}
		t.agg[s.name] = st
	}
	st.Count++
	st.TotalNs += durNs
	if t.w != nil && t.err == nil {
		t.emitLocked(encodeSpan(&t.line, t.nextSeqLocked(), s, tNs, durNs))
	} else {
		// Aggregate-only traces still burn a sequence number per event so
		// the ids and seqs match a file-backed trace of the same run.
		t.nextSeqLocked()
	}
	// Recycle: drop the trace pointer last so a stale use-after-End is a
	// nil-receiver no-op until the span is handed out again.
	s.t = nil
	s.name = ""
	//mdglint:allow-alloc(free-list growth is amortized; steady state pops and pushes within retained capacity)
	t.free = append(t.free, s)
	hook := t.hook
	t.mu.Unlock()
	if hook != nil {
		hook(name, id, true)
	}
}
