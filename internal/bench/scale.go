package bench

import (
	"context"
	"fmt"
	"math"

	"mobicol/internal/check"
	"mobicol/internal/replan"
	"mobicol/internal/shdgp"
	"mobicol/internal/tsp"
	"mobicol/internal/wsn"
)

// ScaleBench is one row of the scale table: one planner at one deployment
// size, plus the warm-start comparison on shdg rows. Every column is a
// seeded-algorithm output, so the perf ratchet gates each one
// bit-for-bit; wall time at scale comes from planbench, not from here.
type ScaleBench struct {
	N     int     `json:"n"`
	Algo  string  `json:"algo"`
	TourM float64 `json:"tour_m"`
	Stops int     `json:"stops"`
	// Warm-start columns (shdg rows only): a ~1% scenario delta is
	// applied, and the warm repair's tour is compared to a cold replan of
	// the perturbed scenario (warm/cold length ratio) along with the
	// number of dirty sensors the repair had to rehome or recover.
	WarmRatio float64 `json:"warm_ratio,omitempty"`
	WarmDirty int     `json:"warm_dirty,omitempty"`
}

// scalePerturbFrac is the scenario-delta size the warm columns measure:
// 1% of sensors touched, the "small repair" regime the subsystem targets.
const scalePerturbFrac = 0.01

// ScaleSizes returns the scale-row deployment sizes.
func ScaleSizes() []int { return []int{10_000, 100_000} }

// ScaleBenchmarks plans one trial per (n, algo) point at cfg.Seed, field
// side scaled to hold the paper's density. Every size runs shdg with the
// warm-start columns; sizes <= 10k also run visit-all (the visit-all
// tour at n=100k is pure TSP wall time with no covering insight to buy).
// Every plan is held to the check.Plan oracle whatever cfg.Check says,
// and the warm repair to check.MaxWarmRatio: a row is only recorded for
// a valid plan.
func ScaleBenchmarks(cfg Config, sizes []int) ([]ScaleBench, error) {
	rows := make([]ScaleBench, 0, 2*len(sizes))
	for _, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("bench: scale size %d", n)
		}
		row, err := scaleSHDG(cfg, n)
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

// scalePlan plans nw cold with shdg on the config's pool and holds the
// plan to the oracle.
func scalePlan(cfg Config, nw *wsn.Network) (*shdgp.Solution, error) {
	p := shdgp.NewProblem(nw)
	p.Pool = cfg.pool()
	sol, err := shdgp.Plan(context.Background(), p, shdgp.DefaultPlannerOptions())
	if err != nil {
		return nil, err
	}
	return sol, check.Plan(nw, sol.Plan, check.Options{})
}

func scaleSHDG(cfg Config, n int) (ScaleBench, error) {
	nw := scaleDeploy(cfg, n)
	sol, err := scalePlan(cfg, nw)
	if err != nil {
		return ScaleBench{}, fmt.Errorf("bench: scale shdg n=%d: %w", n, err)
	}
	d := replan.Perturb(nw, scalePerturbFrac, cfg.Seed+1)
	nw2, carried, err := d.Apply(nw, sol.Plan.UploadAt)
	if err != nil {
		return ScaleBench{}, fmt.Errorf("bench: scale warm n=%d: %w", n, err)
	}
	cold, err := scalePlan(cfg, nw2)
	if err != nil {
		return ScaleBench{}, fmt.Errorf("bench: scale cold replan n=%d: %w", n, err)
	}
	warm, st, err := replan.Repair(context.Background(), nw2, sol.Plan, carried, replan.Options{Pool: cfg.pool()})
	if err == nil {
		err = check.Plan(nw2, warm, check.Options{})
	}
	if err == nil {
		err = check.WarmQuality(warm.Length(), cold.Length)
	}
	if err != nil {
		return ScaleBench{}, fmt.Errorf("bench: scale warm repair n=%d: %w", n, err)
	}
	return ScaleBench{
		N:    n,
		Algo: "shdg",
		//mdglint:ignore unitcheck JSON boundary: scale rows store tour lengths as raw float64
		TourM:     float64(sol.Length),
		Stops:     sol.Stops(),
		WarmRatio: check.WarmRatio(warm.Length(), cold.Length),
		WarmDirty: st.Dirty(),
	}, nil
}

func scaleVisitAll(cfg Config, n int) (ScaleBench, error) {
	nw := scaleDeploy(cfg, n)
	p := shdgp.NewProblem(nw)
	p.Pool = cfg.pool()
	sol, err := shdgp.PlanVisitAll(p, tsp.DefaultOptions())
	if err == nil {
		err = check.Plan(nw, sol.Plan, check.Options{})
	}
	if err != nil {
		return ScaleBench{}, fmt.Errorf("bench: scale visit-all n=%d: %w", n, err)
	}
	return ScaleBench{
		N:    n,
		Algo: "visit-all",
		//mdglint:ignore unitcheck JSON boundary: scale rows store tour lengths as raw float64
		TourM: float64(sol.Length),
		Stops: sol.Stops(),
	}, nil
}
