package obs

import (
	"math"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Counter("c").Add(3)
	r.Gauge("g").Set(1.5)
	r.Gauge("g").Set(2.5)
	snap := r.Snapshot()
	if got := snap.Counters[0].Value; got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := snap.Gauges[0].Value; got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

// TestHistogramBucketing pins the bucket-assignment contract: a sample
// lands in the first bucket whose upper bound is >= the value (closed on
// the right), values above every bound land in the overflow cell, and
// exact-boundary samples belong to the boundary's own bucket.
func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 3.9, 4, 4.1, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot().Hists[0]
	// Buckets: <=1, <=2, <=4, overflow. The boundary samples 1, 2, 4
	// land in their own bucket; 4.1 and 100 overflow.
	want := []int64{2, 2, 2, 2}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("bucket counts = %v, want %v", snap.Counts, want)
		}
	}
	if snap.Count != 8 {
		t.Fatalf("count = %d, want 8", snap.Count)
	}
	if snap.Min != 0.5 || snap.Max != 100 {
		t.Fatalf("min/max = %v/%v", snap.Min, snap.Max)
	}
}

func TestHistogramRejectsNaN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1})
	h.Observe(math.NaN())
	h.Observe(2)
	snap := r.Snapshot().Hists[0]
	if snap.Count != 1 {
		t.Fatalf("count = %d, want 1 (NaN must be dropped)", snap.Count)
	}
	if math.IsNaN(snap.Sum) || snap.Sum != 2 {
		t.Fatalf("sum = %v, want 2", snap.Sum)
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", nil)
	snap := r.Snapshot().Hists[0]
	if snap.Count != 0 || !math.IsInf(snap.Min, 1) || !math.IsInf(snap.Max, -1) {
		t.Fatalf("empty hist snapshot = %+v", snap)
	}
	if len(snap.Counts) != len(snap.Bounds)+1 {
		t.Fatalf("counts/bounds mismatch: %d vs %d", len(snap.Counts), len(snap.Bounds))
	}
}

func TestHistogramReusedBoundsIgnored(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("h", []float64{1, 2})
	b := r.Histogram("h", []float64{99}) // later bounds ignored
	if a != b {
		t.Fatal("same name must return the same histogram")
	}
	if got := len(r.Snapshot().Hists[0].Bounds); got != 2 {
		t.Fatalf("bounds = %d, want the original 2", got)
	}
}

func TestLinearBuckets(t *testing.T) {
	got := LinearBuckets(0, 0.25, 4)
	want := []float64{0, 0.25, 0.5, 0.75}
	if len(got) != len(want) {
		t.Fatalf("LinearBuckets = %v", got)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("LinearBuckets = %v, want %v", got, want)
		}
	}
	if got := LinearBuckets(5, -1, 3); len(got) != 1 || got[0] != 5 {
		t.Fatalf("degenerate LinearBuckets = %v", got)
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z", "a", "m"} {
		r.Counter(n).Add(1)
		r.Gauge(n + ".g").Set(1)
		r.Histogram(n+".h", nil).Observe(1)
	}
	snap := r.Snapshot()
	if snap.Len() != 9 {
		t.Fatalf("Len = %d, want 9", snap.Len())
	}
	for i := 1; i < len(snap.Counters); i++ {
		if snap.Counters[i-1].Name > snap.Counters[i].Name {
			t.Fatalf("counters unsorted: %v", snap.Counters)
		}
	}
	for i := 1; i < len(snap.Hists); i++ {
		if snap.Hists[i-1].Name > snap.Hists[i].Name {
			t.Fatalf("hists unsorted: %v", snap.Hists)
		}
	}
}

// TestHistogramQuantileContract pins the quantile semantics: NaN when
// empty, exact at p=0/p=1 (the observed extremes), linear interpolation
// inside a bucket, and clamping into [Min, Max].
func TestHistogramQuantileContract(t *testing.T) {
	r := NewRegistry()
	empty := r.Histogram("empty", []float64{1})
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty histogram quantile must be NaN")
	}
	var nilH *Histogram
	if !math.IsNaN(nilH.Quantile(0.5)) {
		t.Error("nil histogram quantile must be NaN")
	}

	// 100 uniform samples 1..100 over bounds 10,20,...,100: each bucket
	// holds exactly 10 samples, so quantiles interpolate almost exactly.
	h := r.Histogram("u", LinearBuckets(10, 10, 10))
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("p0 = %v, want observed min 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("p1 = %v, want observed max 100", got)
	}
	for _, tc := range []struct{ p, want, tol float64 }{
		{0.50, 50, 2}, {0.90, 90, 2}, {0.99, 99, 2}, {0.25, 25, 2},
	} {
		if got := h.Quantile(tc.p); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("p%g = %v, want %v +/- %v", tc.p*100, got, tc.want, tc.tol)
		}
	}
	if !math.IsNaN(h.Quantile(math.NaN())) {
		t.Error("NaN p must yield NaN")
	}

	// The snapshot view must agree with the live view.
	snap := r.Snapshot()
	for _, s := range snap.Hists {
		if s.Name != "u" {
			continue
		}
		if live, fromSnap := h.Quantile(0.9), s.Quantile(0.9); live != fromSnap {
			t.Errorf("live %v vs snapshot %v quantile disagree", live, fromSnap)
		}
	}
}

// TestHistogramQuantileClamped: a single-bucket histogram cannot
// resolve ranks, but its estimates must stay inside [Min, Max].
func TestHistogramQuantileClamped(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("one", []float64{1000})
	h.Observe(5)
	h.Observe(7)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		if got := h.Quantile(p); got < 5 || got > 7 {
			t.Errorf("p%g = %v, outside observed [5, 7]", p*100, got)
		}
	}
	// Overflow-only data: the top bucket's edges are (last bound, Max].
	o := r.Histogram("over", []float64{1})
	o.Observe(50)
	o.Observe(150)
	if got := o.Quantile(0.5); got < 50 || got > 150 {
		t.Errorf("overflow p50 = %v, outside observed [50, 150]", got)
	}
}
