// Command planbench is the planner benchmark. One closed-loop client
// drives the planning stack through the engine seam
// (engine.Select(name).Plan, worker pool of one per CPU, tracing off) on
// one of four workloads, checks every plan with the check.Plan oracle, and
// prints the end-to-end metrics. With -trace 1 it instead runs the traced
// pass and prints the per-layer metrics. Human-readable lines come first;
// the last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":8,"failed":0,"metrics":{"plan_s_p50":{"value":2.41,"unit":"s"},...}}
//
// run.sh builds it from source and runs it from the repository root:
//
//	bash planbench/run.sh --workload dense-10k --seed 1 --seconds 20 --trace 0
//
// The same seed always yields the same inputs. README.md lists the
// workloads, the metrics and what each per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"mobicol/internal/par"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue and result are the shape of the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run parses the flags, runs one workload and prints its result. It
// returns the process exit code: 0 once a result is printed, 1 when the
// run could not produce one, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("planbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-sweep, dense-10k, sparse-30k or warm-100k")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 20, "op time the timed loop measures, and the traced run's sampling budget")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory the traced run writes trace/<workload>-seed<n>.jsonl under")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "planbench: need -workload <name>, -seconds > 0 and -trace 0|1 (%v)\n", err)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, pool: par.Workers(runtime.NumCPU()), traceDir: *out}
	res, err := runWorkload(context.Background(), w, cfg, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "planbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "planbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload runs the untraced or the traced pass and assembles the
// result from the declared metrics, so every declared metric is printed
// with its declared unit and nothing else is.
func runWorkload(ctx context.Context, w workload, cfg runConfig, trace bool, log io.Writer) (result, error) {
	fmt.Fprintf(log, "planbench: workload %s, seed %d, %g s, trace %t, %d workers, planner %q\n",
		w.name, cfg.seed, cfg.seconds, trace, cfg.pool.Size(), w.planner)
	defs, pass := endToEndMetrics(), measure
	if trace {
		defs, pass = perLayerMetrics(), traced
	}
	o, err := pass(ctx, w, cfg, log)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		x, ok := o.values[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not computed", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: x, Unit: d.unit}
		if d.moves != "" {
			fmt.Fprintf(log, "  %-28s %-14.6g %-6s moves %s (%s)\n", d.name, x, d.unit, d.moves, d.on)
		} else {
			fmt.Fprintf(log, "  %-28s %-14.6g %s\n", d.name, x, d.unit)
		}
	}
	return res, nil
}
