package geom

import (
	"testing"

	"mobicol/internal/rng"
)

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

func TestSplitXYReusesBuffers(t *testing.T) {
	pts := []Point{Pt(1, 2), Pt(3, 4)}
	xs := make([]float64, 0, 8)
	ys := make([]float64, 0, 8)
	xs, ys = SplitXY(pts, xs, ys)
	if len(xs) != 2 || xs[1] != 3 || ys[1] != 4 {
		t.Fatalf("SplitXY = %v, %v", xs, ys)
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
