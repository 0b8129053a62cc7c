package bench

import (
	"math"
	"slices"
	"testing"
)

// TestE17WorkerEquivalence pins the harness's fan-out contract on the
// table RESULTS.txt gates bit for bit: E17 prints the same cells whether
// its trials and plans run sequentially or on eight workers.
func TestE17WorkerEquivalence(t *testing.T) {
	get := func(workers int) *Table {
		tbl, err := E17Scale(Config{Trials: 4, Seed: 3, Quick: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	one, eight := get(1), get(8)
	if !slices.EqualFunc(one.Rows, eight.Rows, slices.Equal[[]string]) {
		t.Fatalf("E17 rows differ across worker counts:\n%v (1 worker)\n%v (8 workers)", one.Rows, eight.Rows)
	}
}

// TestTourRowWorkerEquivalence does the same for E2–E4's per-trial
// fan-out.
func TestTourRowWorkerEquivalence(t *testing.T) {
	type row struct{ shdg, visitAll, cla, stops float64 }
	get := func(workers int) row {
		s, v, c, st, err := tourRow(Config{Trials: 3, Seed: 5, Workers: workers}, 100, 200, 30, 7)
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
