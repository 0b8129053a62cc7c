package bench

import (
	"context"
	"fmt"
	"math"

	"mobicol/internal/check"
	"mobicol/internal/engine"
	"mobicol/internal/geom"
	"mobicol/internal/par"
	"mobicol/internal/replan"
	"mobicol/internal/shdgp"
	"mobicol/internal/tsp"
	"mobicol/internal/wsn"
)

// E17Scale carries the paper's evaluation setting (100 sensors in a
// 200 m square, 30 m range) up to n = 100 000 at the same density. The
// n = 100 rows plan cfg.Trials seeded fields with shdg, visit-all and cla
// through the engine registry; the larger rows are ScaleBenchmarks' one
// seeded field per size, with the warm-start columns on shdg. Every plan
// passes the check.Plan oracle, and every number prints in its shortest
// round-trip form, so the committed RESULTS.txt pins each one bit for
// bit. Quick swaps n = 10 000 and 100 000 for n = 1 000.
func E17Scale(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "E17",
		Title:  "scale at paper density (100 sensors per 200x200m, R=30m)",
		Header: []string{"N", "planner", "tour(m)", "stops", "warm/cold", "warm dirty"},
		Notes: []string{
			fmt.Sprintf("N=100: mean of %d trials (seeds %d..%d) through the engine registry; larger N: one field at seed %d", cfg.trials(), cfg.Seed, cfg.Seed+uint64(cfg.trials())-1, cfg.Seed),
			"warm/cold: a 1% delta warm-repaired vs replanned cold; warm dirty: sensors the repair rehomed or recovered",
			"every plan passes the plan oracle; numbers print in shortest round-trip form",
		},
	}
	for _, name := range []string{"shdg", "visit-all", "cla"} {
		tour, stops, err := engineMeans(cfg, name)
		if err != nil {
			return nil, err
		}
		t.AddRow("100", name, exact(tour), exact(stops), "-", "-")
	}
	sizes := []int{10_000, 100_000}
	if cfg.Quick {
		sizes = []int{1_000}
	}
	rows, err := ScaleBenchmarks(cfg, sizes)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		warm, dirty := "-", "-"
		if r.Algo == "shdg" {
			warm, dirty = exact(r.WarmRatio), d(r.WarmDirty)
		}
		t.AddRow(d(r.N), r.Algo, exact(r.TourM), d(r.Stops), warm, dirty)
	}
	return t, nil
}

// engineMeans plans cfg.Trials seeded n = 100 fields with the registered
// planner name, trial i at seed cfg.Seed+i, and returns the mean tour
// length and stop count. Trials fan out across the pool and the sums fold
// in index order, so the means are identical for every pool size.
func engineMeans(cfg Config, name string) (tour geom.Meters, stops float64, err error) {
	p, err := engine.Select(name)
	if err != nil {
		return 0, 0, fmt.Errorf("bench: %w", err)
	}
	type trialOut struct {
		st  engine.Stats
		err error
	}
	outs := par.Map(cfg.pool(), cfg.trials(), func(i int) trialOut {
		st, err := planChecked(p, deploy(100, 200, 30, cfg.Seed+uint64(i)))
		return trialOut{st, err}
	})
	sumStops := 0
	for _, o := range outs {
		if o.err != nil {
			return 0, 0, fmt.Errorf("bench: %s: %w", name, o.err)
		}
		tour += o.st.Length
		sumStops += o.st.Stops
	}
	n := float64(cfg.trials())
	return tour / geom.Meters(n), float64(sumStops) / n, nil
}

// ScaleBench is one large-n row of E17: one planner at one deployment
// size, plus the warm-start comparison on shdg rows.
type ScaleBench struct {
	N     int
	Algo  string
	TourM geom.Meters
	Stops int
	// Warm-start columns (shdg rows only): a ~1% scenario delta is
	// applied, and the warm repair's tour is compared to a cold replan of
	// the perturbed scenario (warm/cold length ratio) along with the
	// number of dirty sensors the repair had to rehome or recover.
	WarmRatio float64
	WarmDirty int
}

// scalePerturbFrac is the scenario-delta size the warm columns measure:
// 1% of sensors touched, the "small repair" regime the subsystem targets.
const scalePerturbFrac = 0.01

// ScaleBenchmarks plans one trial per (n, algo) point at cfg.Seed, field
// side scaled to hold the paper's density. Every size runs shdg with the
// warm-start columns; sizes <= 10k also run visit-all (the visit-all
// tour at n=100k is pure TSP wall time with no covering insight to buy).
// Every plan is held to the check.Plan oracle, and the warm repair to
// check.MaxWarmRatio: a row is only recorded for a valid plan.
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
		N:         n,
		Algo:      "shdg",
		TourM:     sol.Length,
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
		N:     n,
		Algo:  "visit-all",
		TourM: sol.Length,
		Stops: sol.Stops(),
	}, nil
}
