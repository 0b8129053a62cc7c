package bench

import (
	"fmt"

	"mobicol/internal/engine"
	"mobicol/internal/geom"
	"mobicol/internal/par"
	"mobicol/internal/stats"
)

// tourRow gathers the three schemes' tour lengths for one parameter
// point, each planned through the engine registry and held to the plan
// oracle. Trials fan out across the config's pool; per-trial seeds are
// fixed by trial index and the means fold in index order, so the row is
// identical for every pool size.
func tourRow(cfg Config, n int, side, r float64, tag uint64) (shdg, visitAll, cla geom.Meters, stops float64, err error) {
	names := [3]string{"shdg", "visit-all", "cla"}
	var planners [3]engine.Planner
	for i, name := range names {
		if planners[i], err = engine.Select(name); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("bench: %w", err)
		}
	}
	type trialOut struct {
		st  [3]engine.Stats
		err error
	}
	outs := par.Map(cfg.pool(), cfg.trials(), func(trial int) (o trialOut) {
		nw := deploy(n, side, r, cfg.Seed+uint64(trial)*7919+tag)
		for i, p := range planners {
			if o.st[i], o.err = planChecked(p, nw); o.err != nil {
				o.err = fmt.Errorf("bench: %s: %w", names[i], o.err)
				break
			}
		}
		return o
	})
	var sl, vl, cl []geom.Meters
	var st []float64
	for _, o := range outs {
		if o.err != nil {
			return 0, 0, 0, 0, o.err
		}
		sl = append(sl, o.st[0].Length)
		vl = append(vl, o.st[1].Length)
		cl = append(cl, o.st[2].Length)
		st = append(st, float64(o.st[0].Stops))
	}
	return stats.Mean(sl), stats.Mean(vl), stats.Mean(cl), stats.Mean(st), nil
}

// E2TourVsN reproduces tour length as a function of the number of sensors
// (L = 200 m, R = 30 m): the SHDG plan vs the covering-line approximation
// vs visiting every sensor. Expected shape: SHDG flattens as density grows
// (more sensors per stop), visit-all keeps growing ~ sqrt(N·A), CLA is
// constant-ish once all lines are occupied.
func E2TourVsN(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "tour length vs number of sensors (L=200m, R=30m)",
		Header: []string{"N", "SHDG(m)", "stops", "CLA(m)", "visit-all(m)", "CLA/SHDG", "visit-all/SHDG"},
		Notes:  []string{fmt.Sprintf("%d trials per point", cfg.trials())},
	}
	ns := []int{100, 200, 300, 400, 500}
	if cfg.Quick {
		ns = []int{100, 200}
	}
	for _, n := range ns {
		s, v, c, stops, err := tourRow(cfg, n, 200, 30, uint64(n))
		if err != nil {
			return nil, err
		}
		t.AddRow(d(n), f1(s), f1(stops), f1(c), f1(v), ratio(c, s), ratio(v, s))
	}
	return t, nil
}

// E3TourVsRange reproduces tour length as a function of the transmission
// range (N = 200, L = 200 m). Larger ranges mean each stop covers more
// sensors, so the SHDG tour shrinks steeply; visit-all is unaffected.
func E3TourVsRange(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "tour length vs transmission range (N=200, L=200m)",
		Header: []string{"R(m)", "SHDG(m)", "stops", "CLA(m)", "visit-all(m)"},
		Notes:  []string{fmt.Sprintf("%d trials per point", cfg.trials())},
	}
	rs := []float64{20, 25, 30, 35, 40, 45, 50}
	if cfg.Quick {
		rs = []float64{20, 35, 50}
	}
	for _, r := range rs {
		s, v, c, stops, err := tourRow(cfg, 200, 200, r, uint64(r*10))
		if err != nil {
			return nil, err
		}
		t.AddRow(f1(r), f1(s), f1(stops), f1(c), f1(v))
	}
	return t, nil
}

// E4TourVsField reproduces tour length as a function of the field side
// (N = 400, R = 30 m). Sparser fields push every scheme's tour up; SHDG
// keeps the largest margin because stops amortise across fewer sensors.
func E4TourVsField(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "tour length vs field side (N=400, R=30m)",
		Header: []string{"L(m)", "SHDG(m)", "stops", "CLA(m)", "visit-all(m)", "disconnected nets"},
		Notes: []string{
			fmt.Sprintf("%d trials per point", cfg.trials()),
			"disconnected nets: fraction of trials whose unit-disk graph is disconnected — mobile schemes still serve them",
		},
	}
	sides := []float64{100, 200, 300, 400, 500}
	if cfg.Quick {
		sides = []float64{100, 300}
	}
	n := 400
	if cfg.Quick {
		n = 150
	}
	for _, side := range sides {
		s, v, c, stops, err := tourRow(cfg, n, side, 30, uint64(side))
		if err != nil {
			return nil, err
		}
		// Disconnection frequency over the same trials.
		disc := 0
		for trial := 0; trial < cfg.trials(); trial++ {
			seed := cfg.Seed + uint64(trial)*7919 + uint64(side)
			nw := deploy(n, side, 30, seed)
			if len(nw.Components()) > 1 {
				disc++
			}
		}
		t.AddRow(f1(side), f1(s), f1(stops), f1(c), f1(v),
			fmt.Sprintf("%d/%d", disc, cfg.trials()))
	}
	return t, nil
}
