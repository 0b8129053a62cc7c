package bench

import (
	"fmt"
	"math"

	"mobicol/internal/check"
	"mobicol/internal/obs"
	"mobicol/internal/replan"
	"mobicol/internal/shdgp"
	"mobicol/internal/tsp"
	"mobicol/internal/wsn"
)

// ScaleBench is one row of the scale table: one planner at one deployment
// size, plus the warm-start comparison where it applies. Quality fields
// (tour_m, stops, warm_ratio) are deterministic; the timing columns are
// machine-dependent by nature and never gated.
type ScaleBench struct {
	N     int     `json:"n"`
	Algo  string  `json:"algo"`
	TourM float64 `json:"tour_m"`
	Stops int     `json:"stops"`
	// PlanNs is one cold planning run end to end (deployment excluded);
	// PlansPerSec is its reciprocal, the column the README quotes.
	PlanNs      int64   `json:"plan_ns"`
	PlansPerSec float64 `json:"plans_per_sec"`
	// Warm-start columns (shdg rows with warm measurement enabled): a
	// ~1% scenario delta is applied, and warm repair is compared to a
	// cold replan of the perturbed scenario.
	WarmNs      int64   `json:"warm_ns,omitempty"`
	WarmSpeedup float64 `json:"warm_speedup,omitempty"`
	WarmRatio   float64 `json:"warm_ratio,omitempty"`
	WarmDirty   int     `json:"warm_dirty,omitempty"`
}

// scalePerturbFrac is the scenario-delta size the warm columns measure:
// 1% of sensors touched, the "small repair" regime the subsystem targets.
const scalePerturbFrac = 0.01

// ScaleSizes returns the default scale-row deployment sizes.
func ScaleSizes() []int { return []int{10_000, 100_000} }

// ScaleBenchmarks measures large-n planning: one trial per (n, algo)
// point at cfg.Seed, field side scaled to hold the paper's density.
// Every size runs shdg; sizes <= 10k also run visit-all (the visit-all
// tour at n=100k is pure TSP wall time with no covering insight to buy).
// With warm set, shdg rows also measure warm-start repair after a ~1%
// delta: repair time, speedup over a cold replan, and the warm/cold
// quality ratio, which must stay within check.MaxWarmRatio.
func ScaleBenchmarks(cfg Config, sizes []int, warm bool) ([]ScaleBench, error) {
	rows := make([]ScaleBench, 0, 2*len(sizes))
	for _, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("bench: scale size %d", n)
		}
		row, err := scaleSHDG(cfg, n, warm)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if n <= 10_000 {
			va, err := scaleVisitAll(cfg, n)
			if err != nil {
				return nil, err
			}
			rows = append(rows, va)
		}
	}
	return rows, nil
}

// scaleDeploy builds the benchmark deployment for size n: density held at
// the paper's evaluation setting (100 sensors per 200x200m).
func scaleDeploy(cfg Config, n int) *wsn.Network {
	side := 200.0 * math.Sqrt(float64(n)/100.0)
	return deploy(n, side, 30.0, cfg.Seed)
}

func scaleSHDG(cfg Config, n int, warm bool) (ScaleBench, error) {
	nw := scaleDeploy(cfg, n)
	p := shdgp.NewProblem(nw)
	p.Pool = cfg.pool()
	w := obs.StartWatch()
	sol, err := shdgp.Plan(p, shdgp.DefaultPlannerOptions())
	planNs := w.ElapsedNs()
	if err != nil {
		return ScaleBench{}, fmt.Errorf("bench: scale shdg n=%d: %w", n, err)
	}
	if err := cfg.checkPlan("shdg", nw, sol.Plan); err != nil {
		return ScaleBench{}, err
	}
	row := ScaleBench{
		N:    n,
		Algo: "shdg",
		//mdglint:ignore unitcheck JSON boundary: scale rows store tour lengths as raw float64
		TourM:       float64(sol.Length),
		Stops:       sol.Stops(),
		PlanNs:      planNs,
		PlansPerSec: 1e9 / float64(planNs),
	}
	if !warm {
		return row, nil
	}

	d := replan.Perturb(nw, scalePerturbFrac, cfg.Seed+1)
	nw2, carried, err := d.Apply(nw, sol.Plan.UploadAt)
	if err != nil {
		return ScaleBench{}, fmt.Errorf("bench: scale warm n=%d: %w", n, err)
	}
	p2 := shdgp.NewProblem(nw2)
	p2.Pool = cfg.pool()
	w = obs.StartWatch()
	cold, err := shdgp.Plan(p2, shdgp.DefaultPlannerOptions())
	coldNs := w.ElapsedNs()
	if err != nil {
		return ScaleBench{}, fmt.Errorf("bench: scale cold replan n=%d: %w", n, err)
	}
	w = obs.StartWatch()
	warmPlan, st, err := replan.Repair(nw2, sol.Plan, carried, replan.Options{Pool: cfg.pool()})
	warmNs := w.ElapsedNs()
	if err != nil {
		return ScaleBench{}, fmt.Errorf("bench: scale warm repair n=%d: %w", n, err)
	}
	// The repaired plan is held to the full oracle and the pinned quality
	// ratio unconditionally — a warm path that trades correctness or
	// quality for speed would otherwise look like a win here.
	if err := check.Plan(nw2, warmPlan, check.Options{}); err != nil {
		return ScaleBench{}, fmt.Errorf("bench: scale warm repair n=%d: %w", n, err)
	}
	if err := check.WarmQuality(warmPlan.Length(), cold.Length); err != nil {
		return ScaleBench{}, fmt.Errorf("bench: scale warm repair n=%d: %w", n, err)
	}
	row.WarmNs = warmNs
	row.WarmSpeedup = float64(coldNs) / float64(warmNs)
	row.WarmRatio = check.WarmRatio(warmPlan.Length(), cold.Length)
	row.WarmDirty = st.Dirty()
	return row, nil
}

func scaleVisitAll(cfg Config, n int) (ScaleBench, error) {
	nw := scaleDeploy(cfg, n)
	p := shdgp.NewProblem(nw)
	p.Pool = cfg.pool()
	w := obs.StartWatch()
	sol, err := shdgp.PlanVisitAll(p, tsp.DefaultOptions())
	planNs := w.ElapsedNs()
	if err != nil {
		return ScaleBench{}, fmt.Errorf("bench: scale visit-all n=%d: %w", n, err)
	}
	if err := cfg.checkPlan("visit-all", nw, sol.Plan); err != nil {
		return ScaleBench{}, err
	}
	return ScaleBench{
		N:    n,
		Algo: "visit-all",
		//mdglint:ignore unitcheck JSON boundary: scale rows store tour lengths as raw float64
		TourM:       float64(sol.Length),
		Stops:       sol.Stops(),
		PlanNs:      planNs,
		PlansPerSec: 1e9 / float64(planNs),
	}, nil
}
