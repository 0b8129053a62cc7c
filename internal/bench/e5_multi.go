package bench

import (
	"fmt"

	"mobicol/internal/mtsp"
	"mobicol/internal/stats"
)

// E5MultiCollector reproduces the multi-collector analysis: for
// applications with a per-round distance (time) constraint, how many
// collectors are needed as the bound tightens, and how the longest
// sub-tour shrinks as collectors are added. N = 300 sensors on a 300 m
// field, R = 30 m; stops come from the SHDG planner.
func E5MultiCollector(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "multi-collector splitting (N=300, L=300m, R=30m)",
		Header: []string{"constraint", "value", "collectors", "max sub-tour(m)", "total driving(m)"},
		Notes: []string{
			"top half: minimum collectors under a per-tour length bound",
			"bottom half: min-max sub-tour length with k collectors",
			fmt.Sprintf("%d trials per row", cfg.trials()),
		},
	}
	n, side := 300, 300.0
	if cfg.Quick {
		n, side = 120, 200
	}
	// The tightest bound must exceed the worst sink round trip: the field
	// corner is ~212 m from the centre sink, so 424 m is the floor.
	bounds := []float64{450, 600, 800, 1000, 1200}
	if cfg.Quick {
		bounds = []float64{400, 800}
	}
	for _, bound := range bounds {
		var ks, maxs, totals []float64
		for trial := 0; trial < cfg.trials(); trial++ {
			seed := cfg.Seed + uint64(trial)*104729 + uint64(bound)
			nw := deploy(n, side, 30, seed)
			sol, err := planSHDG(nw)
			if err != nil {
				return nil, err
			}
			mp, err := mtsp.MinCollectors(nw.Sink, sol.Plan.Stops, bound)
			if err != nil {
				return nil, fmt.Errorf("E5 bound=%v trial %d: %w", bound, trial, err)
			}
			ks = append(ks, float64(mp.K()))
			maxs = append(maxs, mp.MaxLength())
			totals = append(totals, mp.TotalLength())
		}
		t.AddRow("bound(m)", f1(bound), f2(stats.Mean(ks)), f1(stats.Mean(maxs)), f1(stats.Mean(totals)))
	}
	kvals := []int{1, 2, 3, 4, 6}
	if cfg.Quick {
		kvals = []int{1, 3}
	}
	for _, k := range kvals {
		var maxs, totals []float64
		for trial := 0; trial < cfg.trials(); trial++ {
			seed := cfg.Seed + uint64(trial)*104729 + uint64(k)
			nw := deploy(n, side, 30, seed)
			sol, err := planSHDG(nw)
			if err != nil {
				return nil, err
			}
			mp, err := mtsp.MinMaxSplit(nw.Sink, sol.Plan.Stops, k)
			if err != nil {
				return nil, err
			}
			maxs = append(maxs, mp.MaxLength())
			totals = append(totals, mp.TotalLength())
		}
		t.AddRow("k", d(k), d(k), f1(stats.Mean(maxs)), f1(stats.Mean(totals)))
	}
	return t, nil
}
