// mdglife simulates network lifetime and per-round latency for a
// deployment under each data-gathering scheme.
//
// Usage:
//
//	wsngen -n 200 | mdglife
//	mdglife -net net.json -battery 0.05 -tracks 3
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"mobicol/internal/baselines"
	"mobicol/internal/check"
	"mobicol/internal/collector"
	"mobicol/internal/energy"
	"mobicol/internal/engine"
	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/obs/report"
	"mobicol/internal/par"
	"mobicol/internal/routing"
	"mobicol/internal/sim"
	"mobicol/internal/wsn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "mdglife: %v\n", err)
		os.Exit(1)
	}
}

// residualPercentiles buckets the final per-node residual energies on a
// fine fraction-of-battery ladder (the same shape the "sim.residual_j"
// trace histogram uses, just 4x finer) and reads p50/p90/p99 back via
// the registry's quantile estimator. Low percentiles near empty mean
// the scheme drains some sensors flat even when the mean looks healthy.
func residualPercentiles(residual []energy.Joules, battery float64) (p50, p90, p99 float64) {
	r := obs.NewRegistry()
	h := r.Histogram("residual", obs.LinearBuckets(0, battery/32, 32))
	for _, e := range residual {
		//mdglint:ignore unitcheck obs boundary: histogram samples carry raw numbers
		h.Observe(float64(e))
	}
	return h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)
}

func run() error {
	var (
		netPath = flag.String("net", "-", "deployment JSON (wsngen output), or - for stdin")
		battery = flag.Float64("battery", 0.05, "initial battery energy per sensor (J)")
		tracks  = flag.Int("tracks", 2, "tracks for the straight-line baseline")
		speed   = flag.Float64("speed", 1, "collector speed (m/s)")
		relay   = flag.Float64("relay", 0.005, "per-hop relay delay (s)")
		horizon = flag.Int("horizon", 5_000_000, "maximum simulated rounds")
		trace   = flag.String("trace", "", "write a JSONL span/metric trace to this path")
		metrics = flag.Bool("metrics", false, "print a span/metric summary table to stderr")
		workers = flag.Int("workers", 0, "planner worker pool size (0 = one per CPU, 1 = sequential; the plan is identical either way)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProf = flag.String("memprofile", "", "write a heap profile to this path")
	)
	flag.Parse()

	prof, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "mdglife: %v\n", err)
		}
	}()
	tr, finishTrace, err := obs.CLITrace(*trace, *metrics)
	if err != nil {
		return err
	}
	defer func() {
		if err := finishTrace(); err != nil {
			fmt.Fprintf(os.Stderr, "mdglife: %v\n", err)
		}
		if *metrics {
			if err := report.Write(os.Stderr, tr); err != nil {
				fmt.Fprintf(os.Stderr, "mdglife: %v\n", err)
			}
		}
	}()

	var in io.Reader = os.Stdin
	if *netPath != "-" {
		f, err := os.Open(*netPath)
		if err != nil {
			return err
		}
		//mdglint:ignore errcheck input file is read-only; a close failure cannot lose data
		defer f.Close()
		in = f
	}
	nw, err := wsn.ReadJSON(in)
	if err != nil {
		return err
	}

	sc := engine.Scenario{Net: nw}
	shdg, err := engine.Select("shdg")
	if err != nil {
		return err
	}
	shdgPl, shdgSt, err := shdg.Plan(context.Background(), sc,
		engine.Options{Pool: par.Workers(*workers), Obs: tr})
	if err != nil {
		return err
	}
	cla, err := engine.Select("cla")
	if err != nil {
		return err
	}
	// The CLA baseline runs untraced: the lifetime trace's planning spans
	// belong to the headline shdg planner only.
	claPl, _, err := cla.Plan(context.Background(), sc, engine.Options{})
	if err != nil {
		return err
	}
	// The straight-line baseline is a multi-hop relay structure, not a
	// tour plan, so it stays outside the engine seam.
	slPlan, err := baselines.PlanStraightLine(nw, *tracks)
	if err != nil {
		return err
	}
	// Every plan and energy ledger is held to the oracles.
	if err := check.Plan(nw, shdgPl.Tour, check.Options{}); err != nil {
		return fmt.Errorf("shdg: %w", err)
	}
	if err := check.RecordedLength(shdgPl.Tour, shdgSt.Length); err != nil {
		return fmt.Errorf("shdg: %w", err)
	}
	if err := check.Plan(nw, claPl.Tour, check.Options{UploadDist: claPl.UploadDist}); err != nil {
		return fmt.Errorf("cla: %w", err)
	}
	schemes := []sim.Scheme{
		sim.NewMobile("shdg", nw, shdgPl.Tour),
		sim.NewCLA(nw, claPl.Tour),
		sim.NewStraightLine(slPlan),
		sim.NewStatic(routing.BuildPlan(nw)),
	}

	model := energy.DefaultModel()
	model.InitialJ = energy.Joules(*battery)
	spec := collector.Spec{Speed: geom.MetersPerSecond(*speed), UploadTime: 0.1}

	fmt.Printf("network: %v, battery %.3f J\n\n", nw, *battery)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tlifetime(rounds)\tcoverage\tround latency(s)\ttour(m)\tresidual std(J)\tresidual p50/p90/p99(J)")
	for _, s := range schemes {
		res, err := sim.RunLifetimeObs(s, nw.N(), model, *horizon, tr)
		if err != nil {
			return err
		}
		//mdglint:ignore unitcheck oracle boundary: conservation is checked against the raw round count
		if err := check.Ledger(res.Ledger, int(res.Rounds)); err != nil {
			return fmt.Errorf("%s: %w", s.Name(), err)
		}
		lat := sim.MeasureLatency(s, spec, *relay)
		life := fmt.Sprintf("%d", res.Rounds)
		if !res.Died {
			life = fmt.Sprintf(">%d", res.Rounds)
		}
		p50, p90, p99 := residualPercentiles(res.Ledger.Residual, *battery)
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%.1f\t%.5f\t%.5f/%.5f/%.5f\n",
			s.Name(), life, s.Coverage(), lat.Seconds, lat.TourM, res.Residual.Std, p50, p90, p99)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("\ncheck: ok (plan invariants + energy conservation, all schemes)\n")

	// One packet-granularity DES round over the planned tour: buffer
	// occupancy at the busiest stop is the paper's motivation for
	// bounding sensors per stop, and it reads straight off the trace.
	desSpan := tr.Start("des")
	rt, err := sim.DESMobileRoundObs(nw, shdgPl.Tour, spec, desSpan)
	desSpan.End()
	if err != nil {
		return err
	}
	fmt.Printf("\ndes round (shdg): finish %.1f s, peak stop buffer %d packets\n",
		rt.Finish, rt.MaxQueue())
	return nil
}
