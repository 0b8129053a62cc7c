package geom

import (
	"math"
	"testing"

	"mobicol/internal/rng"
)

func TestBatchKernelsMatchScalar(t *testing.T) {
	s := rng.New(7)
	pts := randPoints(s, 500, 300)
	xs, ys := SplitXY(pts, nil, nil)
	out := make([]float64, len(pts))
	for trial := 0; trial < 20; trial++ {
		q := Pt(s.Uniform(-20, 320), s.Uniform(-20, 320))
		Dist2Batch(xs, ys, q, out)
		for i, p := range pts {
			if out[i] != p.Dist2(q) {
				t.Fatalf("Dist2Batch[%d] = %v, Dist2 = %v", i, out[i], p.Dist2(q))
			}
		}
		gotI, gotD2 := NearestBatch(xs, ys, q)
		wantI := bruteNearest(pts, q, nil)
		if gotI != wantI || gotD2 != pts[wantI].Dist2(q) {
			t.Fatalf("NearestBatch = (%d, %v), brute = (%d, %v)", gotI, gotD2, wantI, pts[wantI].Dist2(q))
		}
		r := s.Uniform(5, 80)
		want := bruteWithin(pts, q, r)
		if got := CountWithinBatch(xs, ys, q, r*r); got != len(want) {
			t.Fatalf("CountWithinBatch = %d, brute = %d", got, len(want))
		}
		sel := SelectWithinBatch(xs, ys, q, r*r, 0, nil)
		got := make([]int, len(sel))
		for i, v := range sel {
			got[i] = int(v)
		}
		sameIndexSet(t, got, want, "SelectWithinBatch")
	}
}

func TestDist2Gather(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(3, 4), Pt(6, 8), Pt(1, 1)}
	xs, ys := SplitXY(pts, nil, nil)
	idx := []int32{2, 0, 3}
	out := make([]float64, len(idx))
	Dist2Gather(xs, ys, idx, Pt(0, 0), out)
	want := []float64{100, 0, 2}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Dist2Gather[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestSelectWithinBatchBase(t *testing.T) {
	xs := []float64{0, 1, 2}
	ys := []float64{0, 0, 0}
	got := SelectWithinBatch(xs, ys, Pt(0, 0), 1.1, 100, nil)
	if len(got) != 2 || got[0] != 100 || got[1] != 101 {
		t.Fatalf("SelectWithinBatch with base = %v", got)
	}
}

func TestNearestBatchEmpty(t *testing.T) {
	if i, d := NearestBatch(nil, nil, Pt(0, 0)); i != -1 || !math.IsInf(d, 1) {
		t.Fatalf("NearestBatch(empty) = (%d, %v)", i, d)
	}
}

func TestSplitXYReusesBuffers(t *testing.T) {
	pts := []Point{Pt(1, 2), Pt(3, 4)}
	xs := make([]float64, 0, 8)
	ys := make([]float64, 0, 8)
	xs, ys = SplitXY(pts, xs, ys)
	if len(xs) != 2 || xs[1] != 3 || ys[1] != 4 {
		t.Fatalf("SplitXY = %v, %v", xs, ys)
	}
}

func BenchmarkDist2Batch10k(b *testing.B) {
	pts := randPoints(rng.New(1), 10_000, 2000)
	xs, ys := SplitXY(pts, nil, nil)
	out := make([]float64, len(pts))
	q := Pt(1000, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dist2Batch(xs, ys, q, out)
	}
}

func BenchmarkGridIndexAutoBuild10k(b *testing.B) {
	pts := randPoints(rng.New(1), 10_000, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewGridIndexAuto(pts, 0)
	}
}
