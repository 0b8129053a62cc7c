package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func quick() Config { return Config{Trials: 2, Seed: 1, Quick: true} }

// All runs every experiment and returns the tables in order.
func All(cfg Config) ([]*Table, error) {
	runs := []func(Config) (*Table, error){
		E1OptimalGap, E2TourVsN, E3TourVsRange, E4TourVsField,
		E5MultiCollector, E6Lifetime, E7Latency, E8Ablations,
		E9BufferCapacity, E10DESLatency,
		E11Obstacles, E12LossyLinks, E13Scheduling, E14Hetero, E15Adaptive, E16Rotation,
		E17Scale,
	}
	var out []*Table
	for _, run := range runs {
		tbl, err := run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, tbl)
	}
	return out, nil
}

func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(tbl.Rows[row][col], "x"), "%"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

func TestAllExperimentsRun(t *testing.T) {
	tables, err := All(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 17 {
		t.Fatalf("got %d tables", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: empty table", tbl.ID)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Header) {
				t.Fatalf("%s: row width %d != header %d", tbl.ID, len(row), len(tbl.Header))
			}
		}
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), tbl.ID) {
			t.Fatalf("%s: render missing ID", tbl.ID)
		}
	}
}

func TestE1HeuristicNeverBeatsOptimal(t *testing.T) {
	tbl, err := E1OptimalGap(quick())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		opt, heur := cell(t, tbl, r, 1), cell(t, tbl, r, 2)
		if heur < opt-1e-6 {
			t.Fatalf("row %d: heuristic %.2f beat 'optimal' %.2f — exact solver broken", r, heur, opt)
		}
	}
}

func TestE2ShapeSHDGBeatsBaselines(t *testing.T) {
	tbl, err := E2TourVsN(quick())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		shdg, cla, all := cell(t, tbl, r, 1), cell(t, tbl, r, 3), cell(t, tbl, r, 4)
		if shdg >= cla || shdg >= all {
			t.Fatalf("row %d: SHDG %.1f not shortest (CLA %.1f, visit-all %.1f)", r, shdg, cla, all)
		}
	}
}

func TestE3TourShrinksWithRange(t *testing.T) {
	tbl, err := E3TourVsRange(quick())
	if err != nil {
		t.Fatal(err)
	}
	first := cell(t, tbl, 0, 1)
	last := cell(t, tbl, len(tbl.Rows)-1, 1)
	if last >= first {
		t.Fatalf("SHDG tour did not shrink with range: %.1f -> %.1f", first, last)
	}
}

func TestE4TourGrowsWithField(t *testing.T) {
	tbl, err := E4TourVsField(quick())
	if err != nil {
		t.Fatal(err)
	}
	first := cell(t, tbl, 0, 1)
	last := cell(t, tbl, len(tbl.Rows)-1, 1)
	if last <= first {
		t.Fatalf("SHDG tour did not grow with field side: %.1f -> %.1f", first, last)
	}
}

func TestE6MobileOutlivesStatic(t *testing.T) {
	tbl, err := E6Lifetime(quick())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		shdg, static := cell(t, tbl, r, 1), cell(t, tbl, r, 4)
		if shdg <= static {
			t.Fatalf("row %d: shdg lifetime %.0f not beyond static %.0f", r, shdg, static)
		}
	}
}

func TestE7StaticFasterThanMobile(t *testing.T) {
	tbl, err := E7Latency(quick())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		shdg, static := cell(t, tbl, r, 1), cell(t, tbl, r, 4)
		if static >= shdg {
			t.Fatalf("row %d: static latency %.2f not below mobile %.2f", r, static, shdg)
		}
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17"} {
		if _, ok := ByID(id); !ok {
			t.Fatalf("ByID(%s) missing", id)
		}
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID accepted unknown experiment")
	}
}

func TestDeterministicTables(t *testing.T) {
	a, err := E2TourVsN(quick())
	if err != nil {
		t.Fatal(err)
	}
	b, err := E2TourVsN(quick())
	if err != nil {
		t.Fatal(err)
	}
	for r := range a.Rows {
		for c := range a.Rows[r] {
			if a.Rows[r][c] != b.Rows[r][c] {
				t.Fatalf("E2 not deterministic at (%d,%d): %q vs %q", r, c, a.Rows[r][c], b.Rows[r][c])
			}
		}
	}
}
