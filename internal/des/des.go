// Package des is a minimal discrete-event simulation kernel: a time-ordered
// event queue with deterministic tie-breaking. The fine-grained latency
// experiments use it to simulate data gathering at packet granularity —
// collector motion, per-packet uploads, and store-and-forward relaying
// with queueing at the relays (which the closed-form hop-count model
// ignores).
package des

import "container/heap"

// Event is a scheduled callback.
type Event struct {
	Time float64
	// Fn runs when the event fires. It may schedule further events.
	Fn func(now float64)

	seq int // insertion order breaks time ties deterministically
}

// Simulator owns the event queue and the clock.
type Simulator struct {
	now    float64
	queue  eventQueue
	nextID int
	steps  int
}

// New returns a simulator at time zero.
func New() *Simulator { return &Simulator{} }

// Steps returns the number of events executed so far.
func (s *Simulator) Steps() int { return s.steps }

// At schedules fn at absolute time t (>= Now, or it panics: the past is
// immutable).
func (s *Simulator) At(t float64, fn func(now float64)) {
	if t < s.now {
		//mdglint:ignore nopanic documented contract: the event calendar is append-only in time; violating it is a simulation bug
		panic("des: scheduling into the past")
	}
	s.nextID++
	heap.Push(&s.queue, &Event{Time: t, Fn: fn, seq: s.nextID})
}

// After schedules fn delay seconds from now (delay >= 0).
func (s *Simulator) After(delay float64, fn func(now float64)) {
	if delay < 0 {
		//mdglint:ignore nopanic documented contract: delays are non-negative by construction in every caller
		panic("des: negative delay")
	}
	s.At(s.now+delay, fn)
}

// Run executes events until the queue empties or maxEvents fire
// (0 = unlimited). It returns the final clock value and whether the queue
// drained completely.
func (s *Simulator) Run(maxEvents int) (end float64, drained bool) {
	for s.queue.Len() > 0 {
		if maxEvents > 0 && s.steps >= maxEvents {
			return s.now, false
		}
		ev := heap.Pop(&s.queue).(*Event)
		s.now = ev.Time
		s.steps++
		ev.Fn(s.now)
	}
	return s.now, true
}

// eventQueue is a min-heap on (Time, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	//mdglint:ignore floateq exact tie-break contract: equal timestamps fall through to FIFO seq order
	if q[i].Time != q[j].Time {
		return q[i].Time < q[j].Time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*Event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
