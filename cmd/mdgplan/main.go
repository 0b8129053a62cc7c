// mdgplan plans a mobile data-gathering tour for a deployment.
//
// Usage:
//
//	wsngen -n 200 | mdgplan -algo shdg
//	mdgplan -net net.json -algo exact -svg tour.svg
//	mdgplan -net net.json -algo shdg -k 3      # split across 3 collectors
//
// Algorithms come from the engine registry: shdg (heuristic planner,
// default), exact (small instances), visit-all (tour over every sensor),
// sweep (SPT-preorder ablation), cla (covering-line baseline), warm
// (repair a previous plan; -warm-start selects it implicitly).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mobicol/internal/check"
	"mobicol/internal/collector"
	"mobicol/internal/cover"
	"mobicol/internal/engine"
	"mobicol/internal/geom"
	"mobicol/internal/mtsp"
	"mobicol/internal/obs"
	"mobicol/internal/obs/report"
	"mobicol/internal/obstacle"
	"mobicol/internal/par"
	"mobicol/internal/viz"
	"mobicol/internal/wsn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "mdgplan: %v\n", err)
		var unknown *engine.UnknownPlannerError
		if errors.As(err, &unknown) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run() error {
	var (
		netPath    = flag.String("net", "-", "deployment JSON (wsngen output), or - for stdin")
		algo       = flag.String("algo", "shdg", "planning algorithm (a registered engine name: shdg, exact, visit-all, sweep, cla, warm)")
		candidates = flag.String("candidates", "sites", "sites|grid|intersections (shdg/exact)")
		gridStep   = flag.Float64("grid", 20, "grid spacing for -candidates grid")
		k          = flag.Int("k", 1, "number of collectors (>1 splits the tour)")
		bound      = flag.Float64("bound", 0, "per-collector tour bound in metres (0 = none)")
		svgPath    = flag.String("svg", "", "write an SVG rendering to this path")
		speed      = flag.Float64("speed", 1, "collector speed in m/s (latency report)")
		obstPath   = flag.String("obstacles", "", "obstacle course JSON; plans the driven path around them")
		jsonPath   = flag.String("json", "", "write the executable plan (stops + assignment) as JSON")
		tracePath  = flag.String("trace", "", "write a JSONL span/metric trace to this path")
		metrics    = flag.Bool("metrics", false, "print a span/metric summary table to stderr")
		workers    = flag.Int("workers", 0, "planner worker pool size (0 = one per CPU, 1 = sequential; the plan is identical either way)")
		warmStart  = flag.String("warm-start", "", "previous plan JSON (mdgplan -json output); repair it for the new deployment instead of planning cold")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProf    = flag.String("memprofile", "", "write a heap profile to this path")
	)
	flag.Parse()

	// Resolve the planner before touching any input so an unknown -algo
	// is a pure usage error (exit 2) that lists the registry.
	plannerName := *algo
	if *warmStart != "" {
		plannerName = "warm"
	}
	planner, err := engine.Select(plannerName)
	if err != nil {
		return err
	}

	prof, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "mdgplan: %v\n", err)
		}
	}()
	tr, finishTrace, err := obs.CLITrace(*tracePath, *metrics)
	if err != nil {
		return err
	}
	defer func() {
		if err := finishTrace(); err != nil {
			fmt.Fprintf(os.Stderr, "mdgplan: %v\n", err)
		}
		if *metrics {
			if err := report.Write(os.Stderr, tr); err != nil {
				fmt.Fprintf(os.Stderr, "mdgplan: %v\n", err)
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

	if *obstPath != "" {
		return runObstacles(nw, *obstPath, *svgPath, *speed)
	}

	engOpts := engine.Options{Pool: par.Workers(*workers), Obs: tr, GridSpacing: *gridStep}
	switch *candidates {
	case "sites":
		engOpts.Strategy = cover.SensorSites
	case "grid":
		engOpts.Strategy = cover.FieldGrid
	case "intersections":
		engOpts.Strategy = cover.Intersections
	default:
		return fmt.Errorf("unknown candidate strategy %q", *candidates)
	}

	sc := engine.Scenario{Net: nw}
	if *warmStart != "" {
		prev, err := readPrevPlan(*warmStart)
		if err != nil {
			return err
		}
		sc.Prev = prev
	}
	pl, st, err := planner.Plan(context.Background(), sc, engOpts)
	if err != nil {
		return err
	}
	plan, label := pl.Tour, pl.Algorithm
	if plannerName == "exact" && !st.Exact {
		fmt.Fprintln(os.Stderr, "mdgplan: warning: node cap tripped; solution may be suboptimal")
	}
	if st.Warm != nil {
		fmt.Printf("warm-start: kept %d, rehomed %d, recovered %d (+%d stops, -%d ejected, %d tour moves)\n",
			st.Warm.Kept, st.Warm.Rehomed, st.Warm.Recovered, st.Warm.NewStops, st.Warm.Ejected, st.Warm.Moves)
	}

	// Every plan is held to the oracle. Planners whose recorded stops are
	// not the physical upload points (CLA) carry their true upload
	// distance on the plan.
	if err := check.Plan(nw, plan, check.Options{UploadDist: pl.UploadDist}); err != nil {
		return err
	}
	if err := check.RecordedLength(plan, st.Length); err != nil {
		return err
	}

	spec := collector.Spec{Speed: geom.MetersPerSecond(*speed), UploadTime: 0.1}
	fmt.Printf("network:    %v\n", nw)
	fmt.Printf("algorithm:  %s\n", label)
	if st.Cover != nil {
		fmt.Printf("candidates: %d (%s strategy, %d sensors)\n",
			st.Cover.Candidates, engOpts.Strategy, st.Cover.Universe)
		fmt.Printf("cover:      %d stops selected (%d after refinement), max %d sensors/stop\n",
			st.Cover.CoverStops, len(plan.Stops), st.Cover.MaxSensorsPerStop)
	}
	fmt.Printf("stops:      %d\n", len(plan.Stops))
	fmt.Printf("tour:       %.1f m\n", plan.Length())
	fmt.Printf("served:     %d/%d sensors\n", plan.Served(), nw.N())
	fmt.Printf("round time: %.1f s at %.1f m/s\n", plan.RoundTime(spec), *speed)
	fmt.Printf("check:      ok (single-hop coverage, sink anchor, finite geometry)\n")

	if *k > 1 || *bound > 0 {
		var mp *mtsp.MultiPlan
		if *bound > 0 {
			mp, err = mtsp.MinCollectors(nw.Sink, plan.Stops, *bound)
		} else {
			mp, err = mtsp.MinMaxSplit(nw.Sink, plan.Stops, *k)
		}
		if err != nil {
			return err
		}
		fmt.Printf("collectors: %d\n", mp.K())
		for i, l := range mp.Lengths() {
			fmt.Printf("  sub-tour %d: %.1f m (%d stops)\n", i+1, l, len(mp.Tours[i]))
		}
		fmt.Printf("max sub-tour: %.1f m (round time %.1f s)\n",
			mp.MaxLength(), mp.MaxLength()/(*speed))
	}

	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			return err
		}
		if err := viz.RenderTour(f, nw, plan); err != nil {
			_ = f.Close() // already failing; the render error is the one to report
			return err
		}
		// Close errors on the output file are real data loss: report them.
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("svg:        %s\n", *svgPath)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		if err := plan.WriteJSON(f); err != nil {
			_ = f.Close() // already failing; the write error is the one to report
			return err
		}
		// Close errors on the output file are real data loss: report them.
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("json:       %s\n", *jsonPath)
	}
	return nil
}

// readPrevPlan loads a previous plan (mdgplan -json output) for the warm
// planner; sensors match positionally (stable ordering across saves).
func readPrevPlan(path string) (*collector.TourPlan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//mdglint:ignore errcheck input file is read-only; a close failure cannot lose data
	defer f.Close()
	return collector.ReadPlanJSON(f)
}

// runObstacles handles the -obstacles mode: obstacle-aware planning with
// its own reporting and rendering.
func runObstacles(nw *wsn.Network, obstPath, svgPath string, speed float64) error {
	f, err := os.Open(obstPath)
	if err != nil {
		return err
	}
	//mdglint:ignore errcheck input file is read-only; a close failure cannot lose data
	defer f.Close()
	course, err := obstacle.ReadJSON(f)
	if err != nil {
		return err
	}
	tour, err := obstacle.PlanTour(nw, course)
	if err != nil {
		return err
	}
	fmt.Printf("network:    %v\n", nw)
	fmt.Printf("obstacles:  %d\n", len(course.Obstacles))
	fmt.Printf("stops:      %d\n", len(tour.Stops))
	fmt.Printf("euclidean:  %.1f m\n", tour.Euclidean)
	fmt.Printf("driven:     %.1f m (detour %.3fx, %d waypoints)\n",
		tour.Length, tour.DetourFactor(), len(tour.Waypoints))
	fmt.Printf("round time: %.1f s at %.1f m/s\n", tour.Length/speed, speed)
	if svgPath != "" {
		out, err := os.Create(svgPath)
		if err != nil {
			return err
		}
		if err := viz.RenderObstacleTour(out, nw, course, tour); err != nil {
			_ = out.Close() // already failing; the render error is the one to report
			return err
		}
		// Close errors on the output file are real data loss: report them.
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Printf("svg:        %s\n", svgPath)
	}
	return nil
}
