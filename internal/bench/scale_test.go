package bench

import (
	"math"
	"testing"

	"mobicol/internal/check"
)

// TestScaleBenchmarksSmall drives the scale harness end to end at a
// small n (the machinery is size-independent; E17 runs the real 10k and
// 100k rows). Both algorithms must produce rows, the warm columns must be
// populated on the shdg row only, and the quality ratio must honour the
// pinned bound the harness itself enforces.
func TestScaleBenchmarksSmall(t *testing.T) {
	rows, err := ScaleBenchmarks(Config{Seed: 1, Workers: 1}, []int{300})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want shdg + visit-all", len(rows))
	}
	shdg, va := rows[0], rows[1]
	if shdg.Algo != "shdg" || va.Algo != "visit-all" {
		t.Fatalf("row order %q, %q", shdg.Algo, va.Algo)
	}
	for _, r := range rows {
		if r.N != 300 || r.TourM <= 0 || r.Stops <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	if shdg.WarmRatio <= 0 || shdg.WarmDirty <= 0 {
		t.Errorf("warm columns not populated: %+v", shdg)
	}
	if shdg.WarmRatio > check.MaxWarmRatio+0.01 {
		t.Errorf("warm ratio %v above pinned bound", shdg.WarmRatio)
	}
	if va.WarmRatio != 0 || va.WarmDirty != 0 {
		t.Errorf("visit-all row grew warm columns: %+v", va)
	}
}

// TestScaleBenchmarksDeterministicQuality: RESULTS.txt pins every
// column bit for bit, so every column must be identical across runs and
// worker counts.
func TestScaleBenchmarksDeterministicQuality(t *testing.T) {
	a, err := ScaleBenchmarks(Config{Seed: 1, Workers: 1}, []int{300})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScaleBenchmarks(Config{Seed: 1, Workers: 8}, []int{300})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Float64bits(float64(a[i].TourM)) != math.Float64bits(float64(b[i].TourM)) ||
			a[i].Stops != b[i].Stops ||
			math.Float64bits(a[i].WarmRatio) != math.Float64bits(b[i].WarmRatio) ||
			a[i].WarmDirty != b[i].WarmDirty {
			t.Errorf("row %d differs across worker counts:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestScaleBenchmarksBadSize(t *testing.T) {
	if _, err := ScaleBenchmarks(Config{Seed: 1, Workers: 1}, []int{0}); err == nil {
		t.Fatal("size 0 accepted")
	}
}
