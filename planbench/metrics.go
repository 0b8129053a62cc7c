package main

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root lists the same names, units and directions (the tests
// pin the two together); bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change counts as a
// regression.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	// moves and on record, for a per-layer metric, the end-to-end metric
	// a change to the layer should move and the workload it moves on.
	moves string
	on    string
}

// endToEndMetrics are what a user of the planner sees: per-op latency,
// throughput, the tour the collector drives, and the memory it costs.
// An op is one engine Plan call, or one Apply + warm repair round.
//
// The wall-clock bounds sit at the 0.25 cap: on a shared two-vCPU VM,
// host contention moved whole runs by 10–40%, so ten runs of one
// workload spread 4–17% between their quartiles, and up to 41% in a slow
// spell (README.md has the figures). Tour length and stops spread under
// 0.5%, allocation under 3% and per-op peak RSS under 6% outside that
// spell, and get tighter bounds.
func endToEndMetrics() []metricDef {
	return []metricDef{
		{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
		{name: "plan_s_p50", unit: "s", better: "lower", bound: 0.25},
		{name: "plan_s_tail", unit: "s", better: "lower", bound: 0.25},
		{name: "plans_per_s", unit: "1/s", better: "higher", bound: 0.25},
		{name: "tour_km_mean", unit: "km", better: "lower", bound: 0.02},
		{name: "stops_mean", unit: "count", better: "lower", bound: 0.03},
		{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.2},
		{name: "alloc_mb_per_plan", unit: "MiB", better: "lower", bound: 0.15},
	}
}

// perLayerMetrics come from the traced run. Times are medians over the
// traced ops (self time for the planner's own phase spans), counts are
// means, and fractions are means of per-op ratios.
func perLayerMetrics() []metricDef {
	return []metricDef{
		{name: "wsn.deploy_s", unit: "s", better: "lower", moves: "setup_s", on: "paper-sweep"},
		{name: "cover.instance_s_p50", unit: "s", better: "lower", moves: "plan_s_p50", on: "sparse-30k"},
		{name: "cover.greedy_s_p50", unit: "s", better: "lower", moves: "plan_s_p50", on: "sparse-30k"},
		{name: "cover.candidates_mean", unit: "count", better: "lower", moves: "plan_s_p50", on: "sparse-30k"},
		{name: "cover.cover_stops_mean", unit: "count", better: "lower", moves: "plan_s_p50", on: "sparse-30k"},
		{name: "par.instance_speedup", unit: "ratio", better: "higher", moves: "plan_s_p50", on: "sparse-30k"},
		{name: "shdgp.refine_s_p50", unit: "s", better: "lower", moves: "plan_s_p50", on: "dense-10k,sparse-30k"},
		{name: "shdgp.refine_passes_mean", unit: "count", better: "lower", moves: "plan_s_p50", on: "dense-10k,sparse-30k"},
		{name: "shdgp.refine_dropped_frac", unit: "ratio", better: "higher", moves: "stops_mean", on: "dense-10k,sparse-30k"},
		{name: "tsp.proxy_solve_s_p50", unit: "s", better: "lower", moves: "plan_s_p50", on: "dense-10k"},
		{name: "tsp.construct_s_p50", unit: "s", better: "lower", moves: "plan_s_p50", on: "dense-10k"},
		{name: "tsp.twoopt_s_p50", unit: "s", better: "lower", moves: "plan_s_p50", on: "sparse-30k"},
		{name: "tsp.oropt_s_p50", unit: "s", better: "lower", moves: "plan_s_p50", on: "sparse-30k"},
		{name: "tsp.twoopt_moves_mean", unit: "count", better: "lower", moves: "plan_s_p50", on: "sparse-30k"},
		{name: "tsp.oropt_moves_mean", unit: "count", better: "lower", moves: "plan_s_p50", on: "sparse-30k"},
		{name: "tsp.localsearch_gain_frac", unit: "ratio", better: "higher", moves: "tour_km_mean", on: "paper-sweep,dense-10k,sparse-30k"},
		{name: "replan.apply_s_p50", unit: "s", better: "lower", moves: "plan_s_p50", on: "warm-100k"},
		{name: "replan.carry_s_p50", unit: "s", better: "lower", moves: "plan_s_p50", on: "warm-100k"},
		{name: "replan.rehome_s_p50", unit: "s", better: "lower", moves: "plan_s_p50", on: "warm-100k"},
		{name: "replan.recover_s_p50", unit: "s", better: "lower", moves: "plan_s_p50", on: "warm-100k"},
		{name: "replan.splice_s_p50", unit: "s", better: "lower", moves: "plan_s_p50", on: "warm-100k"},
		{name: "replan.improve_s_p50", unit: "s", better: "lower", moves: "plan_s_p50", on: "warm-100k"},
		{name: "replan.dirty_mean", unit: "count", better: "lower", moves: "plan_s_p50", on: "warm-100k"},
		{name: "replan.new_stops_mean", unit: "count", better: "lower", moves: "plan_s_p50", on: "warm-100k"},
		{name: "replan.moves_mean", unit: "count", better: "lower", moves: "plan_s_p50", on: "warm-100k"},
		{name: "replan.kept_frac", unit: "ratio", better: "higher", moves: "plan_s_p50", on: "warm-100k"},
		{name: "obs.overhead_frac", unit: "ratio", better: "lower", moves: "none", on: "all"},
	}
}
