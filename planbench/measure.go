package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"

	"mobicol/internal/engine"
	"mobicol/internal/obs"
	"mobicol/internal/par"
)

// A run sets its workload up at least minSetups times, and goes on, up to
// maxSetups, while its set-ups have taken less than setupBudget seconds.
// setup_s is the median, so a one-off cost (a cold heap, a noisy
// neighbour) in one of them does not move it, and a cheap set-up gets
// more repetitions to take the median over.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2.5
)

// runConfig is one benchmark invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64 // op time the timed loop measures
	pool    par.Pool
	// maxOps caps the input pool (tests); 0 sizes it from seconds.
	maxOps int
	// traceDir receives the traced run's JSONL trace.
	traceDir string
}

// outcome is what one run reports: its metric values by name, the op
// counts, and whether every output it checked was correct.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	correct   bool
}

// loop is the record of one timed loop.
type loop struct {
	attempted int
	failed    int
	firstErr  error
	times     []float64 // seconds per successful op
	peaks     []float64 // MiB: each op's resident-set high-water mark
	spent     float64   // seconds of op time, failed ops included
	tourM     float64   // tour metres summed over successful ops
	stops     int       // stops summed over successful ops
}

// timedLoop is the closed-loop client: it issues op i+1 as soon as op i
// returns, until the ops have used budget seconds or the inputs run out.
// Only the engine call (and a warm round's Apply) is timed; the oracle
// check runs after the clock stops. An op that errors or fails the oracle
// counts as failed and contributes no latency sample. Around each op, off
// the clock, the resident-set high-water mark is reset and read back, so
// every op has its own peak instead of the loop's running maximum.
func timedLoop(ctx context.Context, in *inputs, budget float64, opts engine.Options) loop {
	var l loop
	for i := 0; i < in.len() && l.spent < budget; i++ {
		rssErr := resetPeakRSS()
		start := obs.StartWatch()
		nw, pl, st, err := in.op(ctx, i, opts)
		dt := elapsed(start)
		if rssErr == nil {
			l.peaks = append(l.peaks, peakRSSMB())
		}
		l.spent += dt
		l.attempted++
		if err == nil {
			err = verify(nw, pl, st)
		}
		in.release(i)
		if err != nil {
			l.failed++
			if l.firstErr == nil {
				l.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
			continue
		}
		l.times = append(l.times, dt)
		//mdglint:ignore unitcheck report boundary: tour metres leave as raw numbers
		l.tourM += float64(st.Length)
		l.stops += st.Stops
	}
	return l
}

// measure is the untraced run: set up several times, then time the loop,
// and report the end-to-end metrics.
func measure(ctx context.Context, w workload, cfg runConfig, log io.Writer) (outcome, error) {
	opts := engine.Options{Pool: cfg.pool}
	count := w.poolSize(cfg.seconds, cfg.maxOps)
	var setups []float64
	var in *inputs
	for total := 0.0; len(setups) < maxSetups && (len(setups) < minSetups || total < setupBudget); {
		in = nil
		runtime.GC()
		start := obs.StartWatch()
		var err error
		if in, err = w.prepare(ctx, cfg.seed, count, opts); err != nil {
			return outcome{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, elapsed(start))
		total += setups[len(setups)-1]
	}
	fmt.Fprintf(log, "setup: %d inputs; %d set-ups took %s s\n", count, len(setups), fmtList(setups))

	// The memory figures belong to the timed loop alone: set-up garbage
	// goes back to the OS before it starts.
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := timedLoop(ctx, in, cfg.seconds, opts)
	runtime.ReadMemStats(&after)
	peak := median(l.peaks)
	if len(l.peaks) == 0 {
		// No per-op reset on this platform: the process-lifetime peak.
		peak = peakRSSMB()
		fmt.Fprintf(log, "peak_rss_mb: the high-water mark cannot be reset here; it covers set-up too\n")
	}

	ok := len(l.times)
	fmt.Fprintf(log, "loop: %d ops, %d failed, %.3f s of op time\n", l.attempted, l.failed, l.spent)
	if l.spent < cfg.seconds {
		fmt.Fprintf(log, "loop: the %d prepared inputs ran out before %.0f s\n", count, cfg.seconds)
	}
	if l.firstErr != nil {
		fmt.Fprintf(log, "first failure: %v\n", l.firstErr)
	}
	q1, _ := percentile(l.times, 25)
	q3, _ := percentile(l.times, 75)
	lo, _ := percentile(l.times, 0)
	hi, _ := percentile(l.times, 100)
	fmt.Fprintf(log, "op seconds: min %.4g, p25 %.4g, p75 %.4g, max %.4g\n", lo, q1, q3, hi)
	tail, beyond := percentile(l.times, w.tailPct)
	fmt.Fprintf(log, "plan_s_tail: p%g of %d ops, %d ops beyond it\n", w.tailPct, ok, beyond)

	v := map[string]float64{
		"setup_s":           median(setups),
		"plan_s_p50":        median(l.times),
		"plan_s_tail":       tail,
		"plans_per_s":       ratio(float64(ok), l.spent),
		"tour_km_mean":      ratio(l.tourM/1000, float64(ok)),
		"stops_mean":        ratio(float64(l.stops), float64(ok)),
		"peak_rss_mb":       peak,
		"alloc_mb_per_plan": ratio(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), float64(l.attempted)),
	}
	return outcome{values: v, attempted: l.attempted, failed: l.failed, correct: l.failed == 0 && ok > 0}, nil
}

// elapsed is the seconds since the stopwatch started.
func elapsed(w obs.Watch) float64 { return float64(w.ElapsedNs()) / 1e9 }

// median is the middle of xs (the mean of the two middle values for an
// even count), 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs and the number of
// samples above it (0, 0 for none).
func percentile(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted(xs)[rank-1], n - rank
}

// mean is the average of xs, 0 for none.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0 (a run with no successful op).
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func fmtList(xs []float64) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.4f", x)
	}
	return out
}
