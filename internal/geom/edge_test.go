package geom

import (
	"math"
	"testing"
)

// Edge-case tables for degenerate geometry: coincident points, zero-length
// tours, and collinear configurations. The coincident/collinear scenario
// layouts in internal/check push the planners through these predicates, so
// they are pinned here at the primitive level.

func TestDistDegenerate(t *testing.T) {
	cases := []struct {
		name string
		p, q Point
		want float64
	}{
		{"coincident-origin", Pt(0, 0), Pt(0, 0), 0},
		{"coincident-offset", Pt(3.5, -2.25), Pt(3.5, -2.25), 0},
		{"negative-zero", Pt(0, 0), Pt(math.Copysign(0, -1), 0), 0},
		{"axis-aligned", Pt(1, 2), Pt(1, 7), 5},
		{"tiny-separation", Pt(0, 0), Pt(5e-324, 0), 5e-324},
		{"huge-no-overflow", Pt(-1e308, 0), Pt(1e308, 0), math.Inf(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.p.Dist(tc.q)
			if math.IsInf(tc.want, 1) {
				if !math.IsInf(got, 1) {
					t.Fatalf("Dist = %v, want +Inf", got)
				}
				return
			}
			if got != tc.want {
				t.Fatalf("Dist = %v, want %v", got, tc.want)
			}
			if d2 := tc.p.Dist2(tc.q); math.Abs(d2-tc.want*tc.want) > 1e-12 {
				t.Fatalf("Dist2 = %v, want %v", d2, tc.want*tc.want)
			}
		})
	}
}

func TestOrientationDegenerate(t *testing.T) {
	cases := []struct {
		name    string
		a, b, c Point
		want    int
	}{
		{"all-coincident", Pt(1, 1), Pt(1, 1), Pt(1, 1), 0},
		{"two-coincident", Pt(0, 0), Pt(0, 0), Pt(5, 5), 0},
		{"collinear-horizontal", Pt(0, 0), Pt(5, 0), Pt(10, 0), 0},
		{"collinear-reversed", Pt(10, 0), Pt(5, 0), Pt(0, 0), 0},
		{"collinear-large-coords", Pt(1e6, 1e6), Pt(2e6, 2e6), Pt(3e6, 3e6), 0},
		{"ccw", Pt(0, 0), Pt(1, 0), Pt(1, 1), 1},
		{"cw", Pt(0, 0), Pt(1, 0), Pt(1, -1), -1},
		{"near-collinear-within-eps", Pt(0, 0), Pt(1, 0), Pt(2, 1e-13), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Orientation(tc.a, tc.b, tc.c); got != tc.want {
				t.Fatalf("Orientation = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestCentroidCoincident(t *testing.T) {
	c := Centroid([]Point{Pt(7, -2), Pt(7, -2), Pt(7, -2)})
	if !c.Eq(Pt(7, -2)) {
		t.Fatalf("centroid of coincident points: %v", c)
	}
}
