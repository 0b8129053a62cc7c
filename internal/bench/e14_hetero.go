package bench

import (
	"fmt"

	"mobicol/internal/geom"
	"mobicol/internal/rng"
	"mobicol/internal/shdgp"
	"mobicol/internal/stats"
)

// E14Hetero measures heterogeneous transmission ranges: as a growing
// fraction of sensors runs weak radios (half the nominal range), stops
// must crowd closer to the weak sensors and the tour stretches. The
// uniform-range rows bracket the sweep.
func E14Hetero(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E14",
		Title:  "heterogeneous ranges: tour vs weak-sensor fraction (N=150, L=200m, strong 30m, weak 15m)",
		Header: []string{"weak fraction", "tour(m)", "stops", "vs all-strong"},
		Notes:  []string{fmt.Sprintf("%d trials per row; weak sensors fixed per seed", cfg.trials())},
	}
	fractions := []float64{0, 0.25, 0.5, 0.75, 1}
	if cfg.Quick {
		fractions = []float64{0, 0.5, 1}
	}
	n := 150
	if cfg.Quick {
		n = 80
	}
	baseline := geom.Meters(0)
	for fi, frac := range fractions {
		var lens []geom.Meters
		var stops []float64
		for trial := 0; trial < cfg.trials(); trial++ {
			seed := cfg.Seed + uint64(trial)*71059
			nw := deploy(n, 200, 30, seed)
			src := rng.New(seed ^ 0xdead)
			radii := make([]float64, nw.N())
			for i := range radii {
				if src.Float64() < frac {
					radii[i] = 15
				} else {
					radii[i] = 30
				}
			}
			sol, err := shdgp.PlanHetero(nw, radii)
			if err != nil {
				return nil, fmt.Errorf("E14 frac=%v trial %d: %w", frac, trial, err)
			}
			if err := sol.ValidateHetero(nw.Positions(), radii); err != nil {
				return nil, err
			}
			lens = append(lens, sol.Length)
			stops = append(stops, float64(sol.Stops()))
		}
		mean := stats.Mean(lens)
		if fi == 0 {
			baseline = mean
		}
		t.AddRow(fmt.Sprintf("%.2f", frac), f1(mean), f2(stats.Mean(stops)),
			fmt.Sprintf("%+.1f%%", 100*(mean-baseline)/baseline))
	}
	return t, nil
}
