package bench

import (
	"math"
	"strings"
	"testing"

	"mobicol/internal/check"
)

// TestScaleBenchmarksSmall drives the scale harness end to end at a
// small n (the machinery is size-independent; the perf ratchet runs the
// real 10k and 100k rows). Both algorithms must produce rows, the warm
// columns must be populated on the shdg row only, and the quality ratio
// must honour the pinned bound the harness itself enforces. Check is
// left off: the harness applies the oracle to every scale plan anyway.
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

// TestScaleBenchmarksDeterministicQuality: every column is gated
// bit-for-bit, so every column must be identical across runs and worker
// counts.
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
		if math.Float64bits(a[i].TourM) != math.Float64bits(b[i].TourM) ||
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

// TestCompareScale pins the perf-gate policy for the scale rows: every
// column bit-exact (a warm column appearing or vanishing is a change from
// or to zero), a missing baseline row structural, extra current rows and
// an empty baseline gating nothing.
func TestCompareScale(t *testing.T) {
	base := []ScaleBench{{N: 10_000, Algo: "shdg", TourM: 100, Stops: 5, WarmRatio: 1.01, WarmDirty: 7}}

	if bad := compareScale(base, base); len(bad) != 0 {
		t.Errorf("identical rows flagged: %v", bad)
	}
	extra := append([]ScaleBench{{N: 300, Algo: "visit-all", TourM: 1, Stops: 1}}, base...)
	if bad := compareScale(base, extra); len(bad) != 0 {
		t.Errorf("extra current row flagged: %v", bad)
	}

	cases := []struct {
		name string
		cur  []ScaleBench
		want string
	}{
		{"tour", []ScaleBench{{N: 10_000, Algo: "shdg", TourM: 101, Stops: 5, WarmRatio: 1.01, WarmDirty: 7}}, "tour_m"},
		{"stops", []ScaleBench{{N: 10_000, Algo: "shdg", TourM: 100, Stops: 6, WarmRatio: 1.01, WarmDirty: 7}}, "stops"},
		{"ratio", []ScaleBench{{N: 10_000, Algo: "shdg", TourM: 100, Stops: 5, WarmRatio: 1.02, WarmDirty: 7}}, "warm_ratio"},
		{"dirty", []ScaleBench{{N: 10_000, Algo: "shdg", TourM: 100, Stops: 5, WarmRatio: 1.01, WarmDirty: 8}}, "warm_dirty"},
		{"columns", []ScaleBench{{N: 10_000, Algo: "shdg", TourM: 100, Stops: 5}}, "warm_ratio changed: 1.01 -> 0"},
		{"missing", nil, "shdg@10000: row missing"},
	}
	for _, tc := range cases {
		bad := compareScale(base, tc.cur)
		if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), tc.want) {
			t.Errorf("%s: want a finding mentioning %q, got %v", tc.name, tc.want, bad)
		}
		if !strings.Contains(strings.Join(bad, "\n"), "scale shdg@10000") {
			t.Errorf("%s: finding must name the row, got %v", tc.name, bad)
		}
	}

	if bad := compareScale(nil, base); len(bad) != 0 {
		t.Errorf("empty baseline must gate nothing, got %v", bad)
	}
}
