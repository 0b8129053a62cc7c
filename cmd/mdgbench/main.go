// mdgbench regenerates the paper-reproduction experiment tables E1–E17
// documented in DESIGN.md and EXPERIMENTS.md, as aligned text, CSV, or
// one markdown report. The tour tables (E2–E4, E8 and E17) verify every
// plan they report; no flag turns that off.
//
// Usage:
//
//	mdgbench                        # every experiment at the default 30 trials
//	mdgbench -e E2,E6               # selected experiments
//	mdgbench -trials 500            # paper-scale averaging (slow)
//	mdgbench -e E2 -format csv      # machine-readable output for plotting
//	mdgbench -format md > report.md # the full reproduction report in markdown
//	mdgbench -e E2,E6 -trace run.jsonl -metrics
//	                                # one "experiment" span per table
//
// Usage errors (unknown experiment or format) exit 2; a failed
// experiment, oracle violation or output error exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mobicol/internal/bench"
	"mobicol/internal/obs"
	"mobicol/internal/obs/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "mdgbench: %v\n", err)
		os.Exit(1)
	}
}

// usage reports a bad flag value and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mdgbench: "+format+"\n", args...)
	os.Exit(2)
}

func run() (err error) {
	var (
		exps    = flag.String("e", "all", "comma-separated experiment IDs (E1..E17), or all")
		trials  = flag.Int("trials", 30, "random topologies per parameter point (paper: 500)")
		seed    = flag.Uint64("seed", 1, "base seed")
		workers = flag.Int("workers", 0, "worker pool size for per-trial fan-out (0 = one per CPU, 1 = sequential; results are identical either way)")
		format  = flag.String("format", "text", "output format: text (aligned tables), csv, or md (one markdown report)")
		trace   = flag.String("trace", "", "write a JSONL span/metric trace to this path")
		metrics = flag.Bool("metrics", false, "print a span/metric summary table to stderr")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProf = flag.String("memprofile", "", "write a heap profile to this path")
	)
	flag.Parse()

	var render func(*bench.Table, io.Writer) error
	switch *format {
	case "text":
		render = (*bench.Table).Render
	case "csv":
		render = (*bench.Table).WriteCSV
	case "md":
		render = (*bench.Table).WriteMarkdown
	default:
		usage("unknown -format %q (want text, csv or md)", *format)
	}
	ids := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17"}
	if *exps != "all" {
		ids = nil
		for _, id := range strings.Split(*exps, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if _, ok := bench.ByID(id); !ok {
				usage("unknown experiment %q", id)
			}
			ids = append(ids, id)
		}
	}

	prof, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	tr, finishTrace, err := obs.CLITrace(*trace, *metrics)
	if err != nil {
		return errors.Join(err, prof.Stop())
	}
	defer func() {
		err = errors.Join(err, finishTrace(), prof.Stop())
		if *metrics {
			err = errors.Join(err, report.Write(os.Stderr, tr))
		}
	}()

	if *format == "md" {
		fmt.Printf("# mobicol reproduction report\n\n")
		fmt.Printf("Generated by `mdgbench -format md -trials %d -seed %d`. ", *trials, *seed)
		fmt.Printf("Experiment definitions and paper-vs-measured analysis: DESIGN.md, EXPERIMENTS.md.\n\n")
	}
	cfg := bench.Config{Trials: *trials, Seed: *seed, Workers: *workers}
	for _, id := range ids {
		runExp, _ := bench.ByID(id) // ids were validated up front
		sp := tr.Start("experiment")
		sp.SetStr("id", id)
		tbl, err := runExp(cfg)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := render(tbl, os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
