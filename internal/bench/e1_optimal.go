package bench

import (
	"context"
	"fmt"

	"mobicol/internal/baselines"
	"mobicol/internal/geom"
	"mobicol/internal/shdgp"
	"mobicol/internal/stats"
)

// E1OptimalGap reproduces the paper's small-network certification against
// the optimal solution (the paper used CPLEX; this repo uses the exact
// combinatorial solver cross-checked by the in-repo ILP). For each network
// size it reports the optimal, heuristic, and CLA tour lengths, the
// heuristic's gap, and the stop counts.
func E1OptimalGap(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "small networks: optimal vs heuristic vs CLA (70x70m, R=25m)",
		Header: []string{"N", "opt tour(m)", "heur tour(m)", "gap", "CLA tour(m)", "opt stops", "heur stops", "ILP min stops"},
		Notes: []string{
			"optimal = exact cover enumeration x Held-Karp; certified against the set-cover ILP",
			fmt.Sprintf("averages over %d seeded topologies per row", cfg.trials()),
		},
	}
	sizes := []int{10, 15, 20, 25}
	if cfg.Quick {
		sizes = []int{10, 15}
	}
	for _, n := range sizes {
		var optL, heurL, claL []geom.Meters
		var optStops, heurStops, ilpStops []int
		for trial := 0; trial < cfg.trials(); trial++ {
			seed := cfg.Seed + uint64(trial)*1000 + uint64(n)
			nw := deploy(n, 70, 25, seed)
			p := shdgp.NewProblem(nw)
			opt, err := shdgp.PlanExact(context.Background(), p)
			if err != nil {
				return nil, fmt.Errorf("E1 N=%d trial %d: %w", n, trial, err)
			}
			heur, err := planSHDG(nw)
			if err != nil {
				return nil, err
			}
			cla, err := baselines.PlanCLA(nw)
			if err != nil {
				return nil, err
			}
			ilp, _, err := shdgp.MinStopsILP(p)
			if err != nil {
				return nil, err
			}
			optL = append(optL, opt.Length)
			heurL = append(heurL, heur.Length)
			claL = append(claL, cla.Length())
			optStops = append(optStops, opt.Stops())
			heurStops = append(heurStops, heur.Stops())
			ilpStops = append(ilpStops, ilp)
		}
		om, hm := stats.Mean(optL), stats.Mean(heurL)
		t.AddRow(d(n), f1(om), f1(hm), fmt.Sprintf("+%.1f%%", 100*(hm-om)/om),
			f1(stats.Mean(claL)), f2(stats.MeanInt(optStops)), f2(stats.MeanInt(heurStops)), f2(stats.MeanInt(ilpStops)))
	}
	return t, nil
}
