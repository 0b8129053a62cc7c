package bench

import (
	"fmt"

	"mobicol/internal/collector"
	"mobicol/internal/geom"
	"mobicol/internal/shdgp"
	"mobicol/internal/sim"
	"mobicol/internal/stats"
)

// E16Rotation measures plan rotation: round-robin across structurally
// different plans averages each sensor's upload distance over rounds, so
// the first death (set by the worst per-round cost) arrives later, at the
// price of a longer worst-round tour.
func E16Rotation(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E16",
		Title:  "plan rotation for energy balancing (N=200, L=200m, R=30m, 0.05J)",
		Header: []string{"plans", "lifetime(rounds)", "vs single", "mean tour(m)", "worst round time(s)"},
		Notes: []string{
			"rotation alternates diverse covers round-robin; lifetime = rounds to first death",
			fmt.Sprintf("%d trials per row", cfg.trials()),
		},
	}
	ks := []int{1, 2, 4, 6}
	if cfg.Quick {
		ks = []int{1, 3}
	}
	n := 200
	if cfg.Quick {
		n = 100
	}
	const horizon = 2_000_000
	spec := collector.DefaultSpec()
	baseline := 0.0
	for ki, k := range ks {
		var rounds, times []float64
		var tours []geom.Meters
		for trial := 0; trial < cfg.trials(); trial++ {
			seed := cfg.Seed + uint64(trial)*91099
			nw := deploy(n, 200, 30, seed)
			sols, err := shdgp.PlanDiverse(shdgp.NewProblem(nw), k)
			if err != nil {
				return nil, err
			}
			plans := make([]*collector.TourPlan, len(sols))
			for i, s := range sols {
				plans[i] = s.Plan
			}
			rot, err := sim.NewRotation(fmt.Sprintf("rotate-%d", k), nw, plans)
			if err != nil {
				return nil, err
			}
			res, err := sim.RunLifetime(rot, nw.N(), lifetimeModel(), horizon)
			if err != nil {
				return nil, err
			}
			//mdglint:ignore unitcheck aggregation boundary: round counts averaged as float64 table statistics
			rounds = append(rounds, float64(res.Rounds))
			tours = append(tours, rot.TourLength())
			times = append(times, rot.RoundTime(spec, 0))
		}
		mean := stats.Mean(rounds)
		if ki == 0 {
			baseline = mean
		}
		t.AddRow(d(k), f1(mean), fmt.Sprintf("%+.1f%%", 100*(mean-baseline)/baseline),
			f1(stats.Mean(tours)), f1(stats.Mean(times)))
	}
	return t, nil
}
