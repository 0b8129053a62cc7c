package bench

import (
	"fmt"

	"mobicol/internal/collector"
	"mobicol/internal/geom"
	"mobicol/internal/obstacle"
	"mobicol/internal/radio"
	"mobicol/internal/routing"
	"mobicol/internal/schedule"
	"mobicol/internal/sim"
	"mobicol/internal/stats"
	"mobicol/internal/wsn"
)

// obstacleCourse builds k disjoint rectangular obstacles in a deterministic
// staggered layout over an L×L field, keeping the centre (sink) clear.
func obstacleCourse(k int, side float64) (*obstacle.Course, error) {
	var polys []obstacle.Polygon
	// Staggered grid of obstacle slots avoiding the centre cell.
	slots := []struct{ fx, fy float64 }{
		{0.15, 0.15}, {0.65, 0.2}, {0.2, 0.65}, {0.7, 0.7},
		{0.42, 0.12}, {0.12, 0.42}, {0.72, 0.45}, {0.45, 0.75},
	}
	if k > len(slots) {
		return nil, fmt.Errorf("bench: at most %d obstacles supported, asked %d", len(slots), k)
	}
	size := 0.18 * side
	for i := 0; i < k; i++ {
		x, y := slots[i].fx*side, slots[i].fy*side
		polys = append(polys, obstacle.Rectangle(geom.NewRect(geom.Pt(x, y), geom.Pt(x+size, y+size))))
	}
	return obstacle.NewCourse(polys...)
}

// E11Obstacles measures the obstacle-aware planner: driven tour length and
// detour factor as obstacles are added to the field (SenCar-style
// trajectory planning around obstacles).
func E11Obstacles(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "obstacle-aware planning: detour vs obstacle count (N=120, L=200m, R=30m)",
		Header: []string{"obstacles", "driven(m)", "euclidean(m)", "detour", "stops"},
		Notes: []string{
			"obstacles block movement, not radio; tours thread the visibility graph",
			fmt.Sprintf("%d trials per row", cfg.trials()),
		},
	}
	counts := []int{0, 2, 4, 6, 8}
	if cfg.Quick {
		counts = []int{0, 4}
	}
	n := 120
	if cfg.Quick {
		n = 60
	}
	for _, k := range counts {
		course, err := obstacleCourse(k, 200)
		if err != nil {
			return nil, err
		}
		var driven, euclid, detour, stops []float64
		for trial := 0; trial < cfg.trials(); trial++ {
			seed := cfg.Seed + uint64(trial)*41023 + uint64(k)
			nw, err := obstacle.DeployAround(wsn.Config{N: n, FieldSide: 200, Range: 30, Seed: seed}, course)
			if err != nil {
				return nil, fmt.Errorf("E11 k=%d trial %d: %w", k, trial, err)
			}
			tour, err := obstacle.PlanTour(nw, course)
			if err != nil {
				return nil, fmt.Errorf("E11 k=%d trial %d: %w", k, trial, err)
			}
			driven = append(driven, tour.Length)
			euclid = append(euclid, tour.Euclidean)
			detour = append(detour, tour.DetourFactor())
			stops = append(stops, float64(len(tour.Stops)))
		}
		t.AddRow(d(k), f1(stats.Mean(driven)), f1(stats.Mean(euclid)),
			fmt.Sprintf("%.3fx", stats.Mean(detour)), f2(stats.Mean(stops)))
	}
	return t, nil
}

// E12LossyLinks replays the lifetime and delivery comparison under the
// transitional-region link model: retransmissions raise everyone's bill,
// but multi-hop chains also compound per-hop losses, so the static sink
// loses both lifetime and delivery.
func E12LossyLinks(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "lossy links: lifetime and delivery vs link quality (N=200, L=200m, R=30m)",
		Header: []string{"link model", "mobile rounds", "static rounds", "ratio", "mobile delivery", "static delivery"},
		Notes:  []string{fmt.Sprintf("%d trials per row; ARQ budget 3 retransmissions", cfg.trials())},
	}
	models := []struct {
		name string
		rm   radio.Model
	}{
		{"perfect", radio.Perfect()},
		{"mild (d50=1.10R)", radio.Model{D50: 1.10, Width: 0.08, MaxRetries: 3}},
		{"default (d50=0.95R)", radio.Default()},
		{"harsh (d50=0.80R)", radio.Model{D50: 0.80, Width: 0.10, MaxRetries: 3}},
	}
	if cfg.Quick {
		models = models[:2]
	}
	n := 200
	if cfg.Quick {
		n = 100
	}
	const horizon = 2_000_000
	for _, mc := range models {
		var mr, sr, md, sd []float64
		for trial := 0; trial < cfg.trials(); trial++ {
			seed := cfg.Seed + uint64(trial)*52067
			nw := deploy(n, 200, 30, seed)
			sol, err := planSHDG(nw)
			if err != nil {
				return nil, err
			}
			mob, err := sim.NewLossyMobile("mobile", nw, sol.Plan, mc.rm)
			if err != nil {
				return nil, err
			}
			static, err := sim.NewLossyStatic(routing.BuildPlan(nw), mc.rm)
			if err != nil {
				return nil, err
			}
			a, err := sim.RunLifetime(mob, nw.N(), lifetimeModel(), horizon)
			if err != nil {
				return nil, err
			}
			b, err := sim.RunLifetime(static, nw.N(), lifetimeModel(), horizon)
			if err != nil {
				return nil, err
			}
			//mdglint:ignore unitcheck aggregation boundary: round counts averaged as float64 table statistics
			mr = append(mr, float64(a.Rounds))
			//mdglint:ignore unitcheck aggregation boundary: round counts averaged as float64 table statistics
			sr = append(sr, float64(b.Rounds))
			md = append(md, mob.DeliveryRatio())
			sd = append(sd, static.DeliveryRatio())
		}
		t.AddRow(mc.name, f1(stats.Mean(mr)), f1(stats.Mean(sr)),
			ratio(stats.Mean(mr), stats.Mean(sr)), f2(stats.Mean(md)), f2(stats.Mean(sd)))
	}
	return t, nil
}

// E13Scheduling measures visit-frequency scheduling: data-loss fraction of
// the fixed cyclic tour vs EDF as per-sensor generation rates rise past
// the cyclic tour's feasibility point, plus the analytic minimum feasible
// collector speed.
func E13Scheduling(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  "visit scheduling under buffer deadlines (N=120, L=200m, R=30m, buffer 40 packets/stop)",
		Header: []string{"workload", "rate(pkt/s/sensor)", "min speed(m/s) (feasible)", "cyclic loss", "EDF loss", "EDF/cyclic visits"},
		Notes: []string{
			"loss = fraction of generated packets dropped to full stop buffers over an 8-round horizon",
			"hotspot = one stop at 20x the base rate: the regime where deadline-driven visiting pays",
			"myopic EDF ignores travel cost, so it loses to the cycle under uniform load — a known",
			"pathology of deadline-only mobile-element scheduling (cf. Somasundara et al.)",
			fmt.Sprintf("%d trials per row", cfg.trials()),
		},
	}
	rates := []float64{0.002, 0.005, 0.01, 0.02, 0.04}
	if cfg.Quick {
		rates = []float64{0.002, 0.02}
	}
	n := 120
	if cfg.Quick {
		n = 60
	}
	spec := collector.DefaultSpec()
	const buffer = 40.0
	for _, hotspot := range []bool{false, true} {
		for _, rate := range rates {
			var minV []geom.MetersPerSecond
			var cycLoss, edfLoss, visitRatio []float64
			for trial := 0; trial < cfg.trials(); trial++ {
				seed := cfg.Seed + uint64(trial)*61027
				nw := deploy(n, 200, 30, seed)
				sol, err := planSHDG(nw)
				if err != nil {
					return nil, err
				}
				demands := schedule.DemandsFromPlan(sol.Plan, rate, buffer)
				if hotspot && len(demands) > 0 {
					demands[0].Rate *= 20
				}
				if v, err := schedule.MinSpeed(sol.Plan, demands, spec.UploadTime); err == nil {
					minV = append(minV, v)
				} // else: infeasible at any speed; excluded from the mean
				horizon := 8 * sol.Plan.RoundTime(spec)
				cyc, err := schedule.Run(sol.Plan, demands, spec, schedule.Cyclic, horizon)
				if err != nil {
					return nil, err
				}
				edf, err := schedule.Run(sol.Plan, demands, spec, schedule.EDF, horizon)
				if err != nil {
					return nil, err
				}
				cycLoss = append(cycLoss, cyc.LossFraction())
				edfLoss = append(edfLoss, edf.LossFraction())
				if cyc.Visits > 0 {
					visitRatio = append(visitRatio, float64(edf.Visits)/float64(cyc.Visits))
				}
			}
			label := "uniform"
			if hotspot {
				label = "hotspot"
			}
			minSpeed := "inf"
			if len(minV) > 0 {
				minSpeed = fmt.Sprintf("%s (%d/%d)", f2(stats.Mean(minV)), len(minV), cfg.trials())
			}
			t.AddRow(label, fmt.Sprintf("%.3f", rate), minSpeed,
				fmt.Sprintf("%.3f", stats.Mean(cycLoss)), fmt.Sprintf("%.3f", stats.Mean(edfLoss)),
				f2(stats.Mean(visitRatio)))
		}
	}
	return t, nil
}
