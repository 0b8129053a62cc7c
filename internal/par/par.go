// Package par is the repository's deterministic parallelism primitive: a
// fixed-chunking worker pool whose results are, by construction, identical
// for every worker count.
//
// The planners and the benchmark harness are subject to the mdglint
// determinism gate: a fixed seed must reproduce every output byte. Free-form
// goroutine fan-out breaks that the moment completion order leaks into the
// result (append order, first-wins reductions, shared RNG draws). This
// package confines parallelism to two shapes that cannot leak:
//
//   - Fixed chunking: ForChunks splits [0, n) into at most Size contiguous
//     chunks. Work item i always receives the same index regardless of how
//     chunks are scheduled, so per-index outputs are schedule-independent.
//   - Ordered results: Map writes result i into slot i, so a caller that
//     folds the slots in index order gets the sequential fold even for
//     non-associative reductions (float sums, first-improvement argmins).
//
// Randomness follows the same rule: a work item derives its seed from its
// index (the experiment harness seeds trial i from the base seed and i)
// or from an rng substream split before the fan-out, never from a
// generator shared across goroutines.
//
// The contract every caller relies on (and the equivalence tests enforce):
// for a pure fn, any two pools produce identical results — Workers(1) is
// the sequential oracle for Workers(n).
package par

import (
	"runtime"
	"sync"
)

// Pool is a degree of parallelism. The zero value runs everything
// sequentially on the calling goroutine, so library code can thread a Pool
// through without forcing callers to opt in.
type Pool struct {
	workers int
}

// Workers returns a pool of n workers. n <= 0 selects one worker per
// available CPU (the CLIs' -workers 0 default).
func Workers(n int) Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return Pool{workers: n}
}

// Seq is the explicit sequential pool: Workers(1), and the oracle the
// parallel/sequential equivalence tests compare against.
func Seq() Pool { return Pool{workers: 1} }

// Size returns the worker count (>= 1; the zero value reports 1).
func (p Pool) Size() int {
	if p.workers <= 0 {
		return 1
	}
	return p.workers
}

// ForChunks partitions [0, n) into min(Size, n) contiguous chunks of
// near-equal length and invokes fn(lo, hi) once per chunk, concurrently on
// a pool of more than one worker. Chunk boundaries depend only on n and the
// pool size — never on scheduling — and a one-worker pool calls fn on the
// calling goroutine with no synchronisation at all, so sequential callers
// pay nothing. fn must be safe to run concurrently with itself and must
// confine its writes to its own index range.
//
//mdglint:hotpath
func (p Pool) ForChunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := p.Size()
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for c := 0; c < w; c++ {
		lo, hi := c*n/w, (c+1)*n/w
		//mdglint:allow-alloc(one goroutine closure per worker per fan-out, not per item)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// ForEach invokes fn(i) for every i in [0, n), chunked across the pool.
// fn must confine its writes to per-index state (e.g. slot i of a result
// slice); under that contract the observable outcome is identical for any
// pool size.
//
//mdglint:hotpath
func (p Pool) ForEach(n int, fn func(i int)) {
	//mdglint:allow-alloc(one wrapper closure per fan-out; the per-item loop inside allocates nothing)
	p.ForChunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Map computes fn(i) for every i in [0, n) across the pool and returns the
// results in index order. Because slot i is written only by the worker that
// ran index i, the returned slice is byte-identical for any pool size.
func Map[T any](p Pool, n int, fn func(i int) T) []T {
	out := make([]T, n)
	p.ForEach(n, func(i int) {
		out[i] = fn(i)
	})
	return out
}
