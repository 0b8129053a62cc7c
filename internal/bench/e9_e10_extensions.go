package bench

import (
	"context"
	"fmt"

	"mobicol/internal/collector"
	"mobicol/internal/geom"
	"mobicol/internal/routing"
	"mobicol/internal/shdgp"
	"mobicol/internal/sim"
	"mobicol/internal/stats"
)

// E9BufferCapacity quantifies the buffer constraint the paper raises when
// motivating planned stops: bounding the sensors per polling point (the
// stop's packet buffer) forces more stops and a longer tour. Cap = ∞ is
// the unconstrained planner; cap = 1 degenerates to visiting (a stop for)
// every sensor.
func E9BufferCapacity(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "buffer-capacity extension: tour vs max sensors per stop (N=150, L=200m, R=30m)",
		Header: []string{"capacity", "tour(m)", "stops", "peak buffer", "vs uncapacitated"},
		Notes: []string{
			"peak buffer = largest packet count held at any stop when the collector arrives (DES-measured)",
			fmt.Sprintf("%d trials per row", cfg.trials()),
		},
	}
	n := 150
	if cfg.Quick {
		n = 80
	}
	caps := []int{0, 20, 10, 5, 2, 1} // 0 = unconstrained
	if cfg.Quick {
		caps = []int{0, 5, 1}
	}
	spec := collector.DefaultSpec()
	baseline := geom.Meters(0)
	for ci, cap := range caps {
		var lens []geom.Meters
		var stops, peaks []float64
		for trial := 0; trial < cfg.trials(); trial++ {
			seed := cfg.Seed + uint64(trial)*15013
			nw := deploy(n, 200, 30, seed)
			p := shdgp.NewProblem(nw)
			var sol *shdgp.Solution
			var err error
			if cap == 0 {
				sol, err = shdgp.Plan(context.Background(), p, shdgp.DefaultPlannerOptions())
			} else {
				sol, err = shdgp.PlanCapacitated(p, cap)
			}
			if err != nil {
				return nil, fmt.Errorf("E9 cap=%d trial %d: %w", cap, trial, err)
			}
			if cap > 0 {
				if err := sol.ValidateCapacity(cap); err != nil {
					return nil, err
				}
			}
			rt, err := sim.DESMobileRound(nw, sol.Plan, spec)
			if err != nil {
				return nil, err
			}
			lens = append(lens, sol.Length)
			stops = append(stops, float64(sol.Stops()))
			peaks = append(peaks, float64(rt.MaxQueue()))
		}
		mean := stats.Mean(lens)
		if ci == 0 {
			baseline = mean
		}
		label := "unbounded"
		if cap > 0 {
			label = d(cap)
		}
		t.AddRow(label, f1(mean), f2(stats.Mean(stops)), f2(stats.Mean(peaks)),
			fmt.Sprintf("%+.1f%%", 100*(mean-baseline)/baseline))
	}
	return t, nil
}

// E10DESLatency compares the closed-form latency model against the
// packet-granularity discrete-event simulation. For the static sink the
// closed form (max hops × per-hop delay) ignores queueing at the
// sink-adjacent relays, which serialise the whole field's traffic; the DES
// measures the real drain time. For the mobile scheme both agree — the
// collector's motion dominates and nothing queues behind radio contention.
func E10DESLatency(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "closed-form vs discrete-event latency (L=200m, R=30m, 5ms/hop)",
		Header: []string{"N", "static analytic(s)", "static DES(s)", "DES/analytic", "static peak queue", "mobile analytic(s)", "mobile DES(s)"},
		Notes:  []string{fmt.Sprintf("%d trials per point", cfg.trials())},
	}
	ns := []int{100, 200, 300, 400}
	if cfg.Quick {
		ns = []int{100, 200}
	}
	spec := collector.DefaultSpec()
	const relayDelay = 0.005
	for _, n := range ns {
		var sAna, sDes, sPeak, mAna, mDes []float64
		for trial := 0; trial < cfg.trials(); trial++ {
			seed := cfg.Seed + uint64(trial)*23017 + uint64(n)
			nw := deploy(n, 200, 30, seed)
			plan := routing.BuildPlan(nw)
			sAna = append(sAna, sim.NewStatic(plan).RoundTime(spec, relayDelay))
			rt, err := sim.DESStaticRound(plan, relayDelay)
			if err != nil {
				return nil, err
			}
			sDes = append(sDes, rt.Finish)
			sPeak = append(sPeak, float64(rt.MaxQueue()))

			sol, err := planSHDG(nw)
			if err != nil {
				return nil, err
			}
			mAna = append(mAna, sol.Plan.RoundTime(spec))
			mrt, err := sim.DESMobileRound(nw, sol.Plan, spec)
			if err != nil {
				return nil, err
			}
			mDes = append(mDes, mrt.Finish)
		}
		t.AddRow(d(n), f2(stats.Mean(sAna)), f2(stats.Mean(sDes)),
			ratio(stats.Mean(sDes), stats.Mean(sAna)), f1(stats.Mean(sPeak)),
			f1(stats.Mean(mAna)), f1(stats.Mean(mDes)))
	}
	return t, nil
}
