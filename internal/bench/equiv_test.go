package bench

import (
	"math"
	"testing"
)

// TestPlannerBenchmarksWorkerEquivalence pins the tentpole contract for
// the harness layer: the planner benchmark's quality fields must be
// bit-identical whether trials run sequentially or fanned out.
func TestPlannerBenchmarksWorkerEquivalence(t *testing.T) {
	seqRes, err := PlannerBenchmarks(Config{Trials: 4, Seed: 3, Workers: 1, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := PlannerBenchmarks(Config{Trials: 4, Seed: 3, Workers: 8, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqRes.Algos) != len(parRes.Algos) {
		t.Fatalf("algo counts differ: %d vs %d", len(seqRes.Algos), len(parRes.Algos))
	}
	for i, sa := range seqRes.Algos {
		pa := parRes.Algos[i]
		if sa.Algo != pa.Algo {
			t.Fatalf("algo %d: %q vs %q", i, sa.Algo, pa.Algo)
		}
		if math.Float64bits(sa.MeanTourM) != math.Float64bits(pa.MeanTourM) {
			t.Fatalf("%s: mean_tour_m %v (seq) vs %v (par)", sa.Algo, sa.MeanTourM, pa.MeanTourM)
		}
		if math.Float64bits(sa.MeanStops) != math.Float64bits(pa.MeanStops) {
			t.Fatalf("%s: mean_stops %v (seq) vs %v (par)", sa.Algo, sa.MeanStops, pa.MeanStops)
		}
		if len(sa.Spans) != len(pa.Spans) {
			t.Fatalf("%s: span name counts differ", sa.Algo)
		}
		for name, n := range sa.Spans {
			if pa.Spans[name] != n {
				t.Fatalf("%s: span %q recorded %d times parallel, %d sequential",
					sa.Algo, name, pa.Spans[name], n)
			}
		}
	}
}

// TestTourRowWorkerEquivalence does the same for the experiment tables'
// per-trial fan-out.
func TestTourRowWorkerEquivalence(t *testing.T) {
	type row struct{ shdg, visitAll, cla, stops float64 }
	get := func(workers int) row {
		s, v, c, st, err := tourRow(Config{Trials: 3, Seed: 5, Workers: workers, Check: true}, 100, 200, 30, 7)
		if err != nil {
			t.Fatal(err)
		}
		return row{float64(s), float64(v), float64(c), st}
	}
	seqRow, parRow := get(1), get(8)
	pairs := [4][2]float64{
		{seqRow.shdg, parRow.shdg},
		{seqRow.visitAll, parRow.visitAll},
		{seqRow.cla, parRow.cla},
		{seqRow.stops, parRow.stops},
	}
	for i, p := range pairs {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Fatalf("column %d: %v (seq) vs %v (par)", i, p[0], p[1])
		}
	}
}
