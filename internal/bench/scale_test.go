package bench

import (
	"math"
	"strings"
	"testing"

	"mobicol/internal/check"
)

// TestScaleBenchmarksSmall drives the scale harness end to end at a
// small n (the machinery is size-independent; CI runs the real 10k
// smoke). Both algorithms must produce rows, the warm columns must be
// populated on the shdg row only, and the quality ratio must honour the
// pinned bound the harness itself enforces.
func TestScaleBenchmarksSmall(t *testing.T) {
	cfg := Config{Trials: 1, Seed: 1, Workers: 1, Check: true}
	rows, err := ScaleBenchmarks(cfg, []int{300}, true)
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
		if r.N != 300 || r.TourM <= 0 || r.Stops <= 0 || r.PlanNs <= 0 || r.PlansPerSec <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	if shdg.WarmNs <= 0 || shdg.WarmSpeedup <= 0 || shdg.WarmDirty <= 0 {
		t.Errorf("warm columns not populated: %+v", shdg)
	}
	if shdg.WarmRatio > check.MaxWarmRatio+0.01 {
		t.Errorf("warm ratio %v above pinned bound", shdg.WarmRatio)
	}
	if va.WarmNs != 0 || va.WarmRatio != 0 {
		t.Errorf("visit-all row grew warm columns: %+v", va)
	}
}

// TestScaleBenchmarksDeterministicQuality: the gated columns (tour,
// stops, warm ratio) must be bit-identical across runs and worker
// counts; only timing may differ.
func TestScaleBenchmarksDeterministicQuality(t *testing.T) {
	a, err := ScaleBenchmarks(Config{Trials: 1, Seed: 1, Workers: 1}, []int{300}, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScaleBenchmarks(Config{Trials: 1, Seed: 1, Workers: 8}, []int{300}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Float64bits(a[i].TourM) != math.Float64bits(b[i].TourM) ||
			a[i].Stops != b[i].Stops ||
			math.Float64bits(a[i].WarmRatio) != math.Float64bits(b[i].WarmRatio) {
			t.Errorf("row %d quality differs across worker counts:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestScaleBenchmarksBadSize(t *testing.T) {
	if _, err := ScaleBenchmarks(Config{Trials: 1, Seed: 1, Workers: 1}, []int{0}, false); err == nil {
		t.Fatal("size 0 accepted")
	}
}

// TestCompareScale pins the perf-gate policy for the scale rows:
// deterministic columns bit-exact, warm-column presence structural,
// timing never compared, missing baseline rows structural, and an
// empty baseline gating nothing.
func TestCompareScale(t *testing.T) {
	base := []ScaleBench{{N: 10_000, Algo: "shdg", TourM: 100, Stops: 5, PlanNs: 1, WarmRatio: 1.01}}

	same := []ScaleBench{{N: 10_000, Algo: "shdg", TourM: 100, Stops: 5, PlanNs: 999, WarmRatio: 1.01}}
	if bad := compareScale(base, same); len(bad) != 0 {
		t.Errorf("timing-only delta flagged: %v", bad)
	}

	cases := []struct {
		name string
		cur  []ScaleBench
		want string
	}{
		{"tour", []ScaleBench{{N: 10_000, Algo: "shdg", TourM: 101, Stops: 5, WarmRatio: 1.01}}, "tour_m"},
		{"stops", []ScaleBench{{N: 10_000, Algo: "shdg", TourM: 100, Stops: 6, WarmRatio: 1.01}}, "stops"},
		{"ratio", []ScaleBench{{N: 10_000, Algo: "shdg", TourM: 100, Stops: 5, WarmRatio: 1.02}}, "warm_ratio"},
		{"columns", []ScaleBench{{N: 10_000, Algo: "shdg", TourM: 100, Stops: 5}}, "warm columns"},
		{"missing", nil, "missing"},
	}
	for _, tc := range cases {
		bad := compareScale(base, tc.cur)
		if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), tc.want) {
			t.Errorf("%s: want a finding mentioning %q, got %v", tc.name, tc.want, bad)
		}
	}

	if bad := compareScale(nil, same); len(bad) != 0 {
		t.Errorf("empty baseline must gate nothing, got %v", bad)
	}
}
