package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"mobicol/internal/engine"
	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/par"
)

// PlannerAlgoBench is one algorithm's row in the planner benchmark
// (PERF_baseline.json).
type PlannerAlgoBench struct {
	Algo      string  `json:"algo"`
	MeanTourM float64 `json:"mean_tour_m"`
	MeanStops float64 `json:"mean_stops"`
	// PhaseNs is the total wall time per span name across all trials,
	// straight from the obs span summary ("plan" is the whole planner;
	// "candidates"/"cover"/"refine"/"tsp" are its phases). Wall times
	// are machine-dependent by nature; the deterministic columns are
	// the tour lengths and stop counts.
	PhaseNs map[string]int64 `json:"phase_ns"`
	// Spans is the number of spans recorded per name (trial count for
	// top-level phases; higher for per-pass spans like "twoopt").
	Spans map[string]int `json:"spans"`
	// AllocsPerOp and BytesPerOp are the mean heap allocation count and
	// bytes per full planning run (deployment included), measured
	// sequentially from runtime.MemStats deltas after one warmup run.
	// Machine-dependent like PhaseNs; the enforced allocation gates are
	// the escape baseline (mdgratchet escape) and the zero-alloc
	// steady-state benchmarks, not these fields.
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
}

// PlannerBenchMeta is the run-metadata block added in schema v2: how
// the harness was fanned out when the numbers were taken. Workers is
// the effective pool size (resolved from Config.Workers, so a <= 0
// config records the actual CPU-count fan-out); TrialsPerPhase is the
// number of trials folded into each phase_ns/spans row. Neither affects
// the quality fields — mean_tour_m and mean_stops are identical for
// every pool size — but phase times are only comparable between runs
// with the same metadata.
type PlannerBenchMeta struct {
	Workers        int `json:"workers"`
	TrialsPerPhase int `json:"trials_per_phase"`
}

// PlannerBenchResult is the schema of the planner benchmark artifact
// that `mdgratchet perf` owns (PERF_baseline.json): per-algorithm tour
// quality plus per-phase planning cost on a fixed instance family, and
// the deterministic large-n scale rows. Schema history: v1 had no meta
// block; v2 added it (PlannerBenchMeta); v3 added the scale rows.
type PlannerBenchResult struct {
	Schema string             `json:"schema"`
	Trials int                `json:"trials"`
	Seed   uint64             `json:"seed"`
	N      int                `json:"n"`
	SideM  float64            `json:"side_m"`
	RangeM float64            `json:"range_m"`
	Meta   PlannerBenchMeta   `json:"meta"`
	Algos  []PlannerAlgoBench `json:"algos"`
	// Scale holds the large-n single-trial rows (ScaleBenchmarks at
	// ScaleSizes). Every column is deterministic and gated bit-for-bit.
	Scale []ScaleBench `json:"scale,omitempty"`
}

// PlannerBenchSchema is the current planner benchmark schema tag.
const PlannerBenchSchema = "mobicol/bench-planner/v3"

// PlannerBenchmarks measures shdg, visit-all and cla cfg.Trials times
// on the paper's evaluation setting (100 sensors in a 200 m square,
// 30 m range) and returns per-algo tour quality plus per-phase span
// durations collected through internal/obs.
func PlannerBenchmarks(cfg Config) (*PlannerBenchResult, error) {
	const n, side, rng = 100, 200.0, 30.0
	res := &PlannerBenchResult{
		Schema: PlannerBenchSchema,
		Trials: cfg.trials(),
		Seed:   cfg.Seed,
		N:      n,
		SideM:  side,
		RangeM: rng,
		Meta: PlannerBenchMeta{
			Workers:        cfg.pool().Size(),
			TrialsPerPhase: cfg.trials(),
		},
	}
	type algoRun struct {
		name string
		plan func(tr *obs.Trace, seed uint64) (tourM geom.Meters, stops int, err error)
	}
	// Each row is a registered engine planner. Deployment happens
	// outside the planner's spans (phase_ns bills planning, not
	// generation), and the zero engine pool keeps each trial sequential —
	// the fan-out lives at the trial level below.
	var algos []algoRun
	for _, name := range []string{"shdg", "visit-all", "cla"} {
		p, err := engine.Select(name)
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		algos = append(algos, algoRun{name, func(tr *obs.Trace, seed uint64) (geom.Meters, int, error) {
			nw := deploy(n, side, rng, seed)
			pl, st, err := p.Plan(context.Background(), engine.Scenario{Net: nw}, engine.Options{Obs: tr})
			if err != nil {
				return 0, 0, err
			}
			if err := cfg.checkEnginePlan(p.Name(), nw, pl); err != nil {
				return 0, 0, err
			}
			return st.Length, st.Stops, nil
		}})
	}
	type trialOut struct {
		tourM geom.Meters
		stops int
		err   error
	}
	for _, a := range algos {
		tr := obs.New(nil) // aggregate-only: we want the span summary
		// Trials fan out across the pool: seeds are fixed per trial index,
		// the shared aggregate-only trace is goroutine-safe and its summary
		// is order-insensitive, and the sums fold in index order — so the
		// quality fields are identical for every pool size.
		outs := par.Map(cfg.pool(), cfg.trials(), func(i int) trialOut {
			tourM, stops, err := a.plan(tr, cfg.Seed+uint64(i))
			return trialOut{tourM: tourM, stops: stops, err: err}
		})
		sumTour, sumStops := geom.Meters(0), 0
		for _, o := range outs {
			if o.err != nil {
				return nil, fmt.Errorf("bench: planner %s: %w", a.name, o.err)
			}
			sumTour += o.tourM
			sumStops += o.stops
		}
		if err := tr.Close(); err != nil {
			return nil, err
		}
		row := PlannerAlgoBench{
			Algo: a.name,
			//mdglint:ignore unitcheck JSON boundary: the artifact stores tour lengths as raw float64
			MeanTourM: float64(sumTour) / float64(cfg.trials()),
			MeanStops: float64(sumStops) / float64(cfg.trials()),
			PhaseNs:   make(map[string]int64),
			Spans:     make(map[string]int),
		}
		for _, st := range tr.Summary() {
			row.PhaseNs[st.Name] = st.TotalNs
			row.Spans[st.Name] = st.Count
		}
		allocs, bytesPer, err := measureAllocs(a.plan, cfg.Seed, cfg.trials())
		if err != nil {
			return nil, fmt.Errorf("bench: planner %s allocs: %w", a.name, err)
		}
		row.AllocsPerOp, row.BytesPerOp = allocs, bytesPer
		res.Algos = append(res.Algos, row)
	}
	return res, nil
}

// measureAllocs reports the mean heap allocation count and bytes per
// planning run, measured sequentially over ops runs after one warmup
// (so lazy package state and scratch growth do not bill the steady
// state). The quality fields never come from this pass — it exists only
// to populate the allocs_per_op/bytes_per_op columns.
func measureAllocs(plan func(tr *obs.Trace, seed uint64) (geom.Meters, int, error), seed uint64, ops int) (allocsPerOp, bytesPerOp uint64, err error) {
	tr := obs.New(nil)
	if _, _, err = plan(tr, seed); err != nil {
		return 0, 0, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < ops; i++ {
		if _, _, err = plan(tr, seed+uint64(i)); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	if err = tr.Close(); err != nil {
		return 0, 0, err
	}
	n := uint64(ops)
	return (m1.Mallocs - m0.Mallocs) / n, (m1.TotalAlloc - m0.TotalAlloc) / n, nil
}

// WriteBenchResult encodes one planner benchmark result in the artifact
// format (indented JSON, trailing newline).
func WriteBenchResult(w io.Writer, res *PlannerBenchResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
