package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// This file is the comparison half of the performance ratchet
// (`mdgratchet perf`): read two planner benchmark artifacts — the
// committed PERF_baseline.json and a fresh run — and decide whether the
// fresh run regressed.
//
// The policy mirrors how trustworthy each field is:
//
//   - mean_tour_m / mean_stops are deterministic outputs of seeded
//     algorithms, so they must be bit-identical; a change means the
//     algorithm changed, which is a correctness signal, not noise.
//   - the scale rows (tour_m, stops, warm_ratio, warm_dirty) are
//     deterministic too and compared the same way.
//   - spans counts are deterministic for a fixed trial count: a span
//     appearing or disappearing means the phase structure changed.
//   - allocs_per_op is compared exactly in the regression direction:
//     allocation counts are stable run-to-run (they are not wall-clock),
//     and the repo's zero-alloc policy treats any increase as a bug.
//   - bytes_per_op and phase_ns are machine- and load-dependent, so they
//     get relative tolerance bands, and phase_ns additionally gets an
//     absolute noise floor so sub-millisecond phases cannot trip the
//     gate on scheduler jitter.

// PerfPolicy sets the tolerance bands for ComparePerf.
type PerfPolicy struct {
	// PhaseTol is the allowed relative growth of each phase_ns entry
	// (0.5 = +50%).
	PhaseTol float64
	// BytesTol is the allowed relative growth of bytes_per_op.
	BytesTol float64
	// MinPhaseNs is an absolute slack added to every phase bound, so
	// phases near the clock's granularity are judged on the absolute
	// scale rather than the relative one.
	MinPhaseNs int64
}

// DefaultPerfPolicy tolerates +50% wall time plus 5ms of absolute slack
// per phase and +20% bytes. Tight enough to catch a complexity-class
// slip on the committed n=100 instance family, loose enough for a noisy
// shared runner; allocs remain exact regardless.
func DefaultPerfPolicy() PerfPolicy {
	return PerfPolicy{PhaseTol: 0.5, BytesTol: 0.2, MinPhaseNs: 5_000_000}
}

// ReadPlannerBench decodes one planner benchmark artifact and checks
// its schema tag.
func ReadPlannerBench(r io.Reader) (*PlannerBenchResult, error) {
	var res PlannerBenchResult
	dec := json.NewDecoder(r)
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("bench: planner artifact: %w", err)
	}
	if res.Schema != PlannerBenchSchema {
		return nil, fmt.Errorf("bench: planner artifact schema %q, want %q (regenerate with mdgratchet perf -update)", res.Schema, PlannerBenchSchema)
	}
	return &res, nil
}

// ComparePerf checks a fresh run against the baseline under the policy
// and returns one human-readable line per violation (empty = pass).
func ComparePerf(base, cur *PlannerBenchResult, pol PerfPolicy) []string {
	var bad []string
	if base.N != cur.N || base.Trials != cur.Trials || base.Seed != cur.Seed {
		bad = append(bad, fmt.Sprintf(
			"config mismatch: baseline (n=%d trials=%d seed=%d) vs current (n=%d trials=%d seed=%d); rerun with matching flags or -update",
			base.N, base.Trials, base.Seed, cur.N, cur.Trials, cur.Seed))
		return bad
	}
	curBy := map[string]*PlannerAlgoBench{}
	for i := range cur.Algos {
		curBy[cur.Algos[i].Algo] = &cur.Algos[i]
	}
	for i := range base.Algos {
		b := &base.Algos[i]
		c := curBy[b.Algo]
		if c == nil {
			bad = append(bad, fmt.Sprintf("%s: algorithm missing from current run", b.Algo))
			continue
		}
		bad = append(bad, compareAlgo(b, c, pol)...)
	}
	bad = append(bad, compareScale(base.Scale, cur.Scale)...)
	return bad
}

// compareScale gates the scale rows: every column is a seeded-algorithm
// output, so any change means the algorithm changed. A baseline row
// missing from the current run is a structural regression.
func compareScale(base, cur []ScaleBench) []string {
	var bad []string
	curBy := map[string]*ScaleBench{}
	for i := range cur {
		curBy[fmt.Sprintf("%s@%d", cur[i].Algo, cur[i].N)] = &cur[i]
	}
	for i := range base {
		b := &base[i]
		key := fmt.Sprintf("%s@%d", b.Algo, b.N)
		c := curBy[key]
		if c == nil {
			bad = append(bad, fmt.Sprintf("scale %s: row missing from current run", key))
			continue
		}
		changed := func(field string, was, now any) {
			bad = append(bad, fmt.Sprintf("scale %s: %s changed: %v -> %v (deterministic field)", key, field, was, now))
		}
		if math.Float64bits(b.TourM) != math.Float64bits(c.TourM) {
			changed("tour_m", b.TourM, c.TourM)
		}
		if b.Stops != c.Stops {
			changed("stops", b.Stops, c.Stops)
		}
		if math.Float64bits(b.WarmRatio) != math.Float64bits(c.WarmRatio) {
			changed("warm_ratio", b.WarmRatio, c.WarmRatio)
		}
		if b.WarmDirty != c.WarmDirty {
			changed("warm_dirty", b.WarmDirty, c.WarmDirty)
		}
	}
	return bad
}

// compareAlgo applies the per-field policy to one algorithm row.
func compareAlgo(b, c *PlannerAlgoBench, pol PerfPolicy) []string {
	var bad []string
	// Quality fields are deterministic: bit-identical or the algorithm
	// itself changed (which requires a deliberate -update).
	if math.Float64bits(b.MeanTourM) != math.Float64bits(c.MeanTourM) {
		bad = append(bad, fmt.Sprintf("%s: mean_tour_m changed: %v -> %v (deterministic field; algorithm output changed)", b.Algo, b.MeanTourM, c.MeanTourM))
	}
	if math.Float64bits(b.MeanStops) != math.Float64bits(c.MeanStops) {
		bad = append(bad, fmt.Sprintf("%s: mean_stops changed: %v -> %v (deterministic field; algorithm output changed)", b.Algo, b.MeanStops, c.MeanStops))
	}
	if c.AllocsPerOp > b.AllocsPerOp {
		bad = append(bad, fmt.Sprintf("%s: allocs_per_op %d -> %d (exact gate: any increase is a regression)", b.Algo, b.AllocsPerOp, c.AllocsPerOp))
	}
	if limit := uint64(float64(b.BytesPerOp) * (1 + pol.BytesTol)); c.BytesPerOp > limit {
		bad = append(bad, fmt.Sprintf("%s: bytes_per_op %d -> %d (limit %d at +%.0f%%)", b.Algo, b.BytesPerOp, c.BytesPerOp, limit, pol.BytesTol*100))
	}
	for _, name := range sortedKeys(b.PhaseNs) {
		baseNs := b.PhaseNs[name]
		curNs, ok := c.PhaseNs[name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: phase %q missing from current run", b.Algo, name))
			continue
		}
		limit := int64(float64(baseNs)*(1+pol.PhaseTol)) + pol.MinPhaseNs
		if curNs > limit {
			bad = append(bad, fmt.Sprintf("%s: phase %q %dns -> %dns (limit %dns at +%.0f%% + %dns slack)",
				b.Algo, name, baseNs, curNs, limit, pol.PhaseTol*100, pol.MinPhaseNs))
		}
	}
	for _, name := range sortedKeys(b.Spans) {
		if c.Spans[name] != b.Spans[name] {
			bad = append(bad, fmt.Sprintf("%s: span count %q changed: %d -> %d (deterministic for a fixed trial count)", b.Algo, name, b.Spans[name], c.Spans[name]))
		}
	}
	return bad
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	//mdglint:ignore determinism keys are collected and then sorted; iteration order never reaches the output
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MedianPerf folds k runs of the same configuration into one result by
// taking the per-field median (lower median for even k) of the noisy
// fields — phase_ns, allocs_per_op, bytes_per_op — per algorithm. The
// deterministic fields are taken from the first run; feeding it runs of
// different configurations is an error. Medians shed one-off scheduler
// spikes, which is what mdgratchet perf's median of three runs buys.
func MedianPerf(runs []*PlannerBenchResult) (*PlannerBenchResult, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("bench: MedianPerf of zero runs")
	}
	first := runs[0]
	for _, r := range runs[1:] {
		if r.N != first.N || r.Trials != first.Trials || r.Seed != first.Seed || len(r.Algos) != len(first.Algos) {
			return nil, fmt.Errorf("bench: MedianPerf over mixed configurations")
		}
	}
	out := *first
	out.Algos = make([]PlannerAlgoBench, len(first.Algos))
	for i := range first.Algos {
		row := first.Algos[i]
		row.PhaseNs = make(map[string]int64, len(first.Algos[i].PhaseNs))
		row.Spans = make(map[string]int, len(first.Algos[i].Spans))
		for name, n := range first.Algos[i].Spans {
			row.Spans[name] = n
		}
		for _, name := range sortedKeys(first.Algos[i].PhaseNs) {
			vals := make([]int64, 0, len(runs))
			for _, r := range runs {
				vals = append(vals, r.Algos[i].PhaseNs[name])
			}
			sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
			row.PhaseNs[name] = vals[(len(vals)-1)/2]
		}
		allocs := make([]uint64, 0, len(runs))
		bytesPer := make([]uint64, 0, len(runs))
		for _, r := range runs {
			allocs = append(allocs, r.Algos[i].AllocsPerOp)
			bytesPer = append(bytesPer, r.Algos[i].BytesPerOp)
		}
		sort.Slice(allocs, func(a, b int) bool { return allocs[a] < allocs[b] })
		sort.Slice(bytesPer, func(a, b int) bool { return bytesPer[a] < bytesPer[b] })
		row.AllocsPerOp = allocs[(len(allocs)-1)/2]
		row.BytesPerOp = bytesPer[(len(bytesPer)-1)/2]
		out.Algos[i] = row
	}
	return &out, nil
}
