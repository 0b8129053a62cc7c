package bench

import (
	"context"
	"fmt"
	"strings"

	"mobicol/internal/cover"
	"mobicol/internal/geom"
	"mobicol/internal/shdgp"
	"mobicol/internal/stats"
	"mobicol/internal/tsp"
)

// E8Ablations quantifies the planner's design choices on a fixed workload
// (N = 150, L = 200 m, R = 30 m): candidate-generation strategy, tour
// construction/improvement stages, and the refinement loop.
func E8Ablations(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "planner ablations (N=150, L=200m, R=30m)",
		Header: []string{"variant", "tour(m)", "stops", "vs default"},
		Notes:  []string{fmt.Sprintf("%d trials per variant; same seeds across variants", cfg.trials())},
	}
	n := 150
	if cfg.Quick {
		n = 80
	}

	type variant struct {
		name  string
		strat cover.CandidateStrategy
		opts  shdgp.PlannerOptions
	}
	def := shdgp.DefaultPlannerOptions()
	noRefine := def
	noRefine.Refine = false
	nnOnly := shdgp.PlannerOptions{TSP: tsp.Options{Construction: tsp.ConstructNN}, Refine: true}
	noOrOpt := def
	noOrOpt.TSP.OrOpt = false
	christo := def
	christo.TSP.Construction = tsp.ConstructChristofides
	variants := []variant{
		{"default (sites, greedy-edge+2opt+oropt, refine)", cover.SensorSites, def},
		{"candidates: field grid (20m)", cover.FieldGrid, def},
		{"candidates: circle intersections", cover.Intersections, def},
		{"no refinement", cover.SensorSites, noRefine},
		{"tour: raw nearest-neighbor", cover.SensorSites, nnOnly},
		{"tour: no Or-opt", cover.SensorSites, noOrOpt},
		{"tour: christofides construction", cover.SensorSites, christo},
		{"heuristic: SPT-sweep instead of global greedy", cover.SensorSites, def},
	}
	if cfg.Quick {
		variants = variants[:4]
	}

	baseline := geom.Meters(0)
	for vi, v := range variants {
		sweep := strings.HasPrefix(v.name, "heuristic: SPT-sweep")
		var lens []geom.Meters
		var stops []float64
		for trial := 0; trial < cfg.trials(); trial++ {
			seed := cfg.Seed + uint64(trial)*31013
			nw := deploy(n, 200, 30, seed)
			p := shdgp.NewProblem(nw)
			p.Strategy = v.strat
			var sol *shdgp.Solution
			var err error
			if sweep {
				sol, err = shdgp.PlanSweep(p, v.opts.TSP)
			} else {
				sol, err = shdgp.Plan(context.Background(), p, v.opts)
			}
			if err != nil {
				return nil, fmt.Errorf("E8 %q trial %d: %w", v.name, trial, err)
			}
			if err := sol.Validate(p); err != nil {
				return nil, fmt.Errorf("E8 %q produced invalid plan: %w", v.name, err)
			}
			lens = append(lens, sol.Length)
			stops = append(stops, float64(sol.Stops()))
		}
		mean := stats.Mean(lens)
		if vi == 0 {
			baseline = mean
		}
		t.AddRow(v.name, f1(mean), f2(stats.Mean(stops)),
			fmt.Sprintf("%+.1f%%", 100*(mean-baseline)/baseline))
	}
	return t, nil
}

// ByID returns the experiment runner for an ID like "E3".
func ByID(id string) (func(Config) (*Table, error), bool) {
	m := map[string]func(Config) (*Table, error){
		"E1": E1OptimalGap, "E2": E2TourVsN, "E3": E3TourVsRange, "E4": E4TourVsField,
		"E5": E5MultiCollector, "E6": E6Lifetime, "E7": E7Latency, "E8": E8Ablations,
		"E9": E9BufferCapacity, "E10": E10DESLatency,
		"E11": E11Obstacles, "E12": E12LossyLinks, "E13": E13Scheduling, "E14": E14Hetero, "E15": E15Adaptive, "E16": E16Rotation,
	}
	f, ok := m[id]
	return f, ok
}
