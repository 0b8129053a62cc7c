package geom

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mobicol/internal/rng"
)

// bruteNearestK is the reference k-nearest query: every point but self,
// ordered by (squared distance, index), cut to k.
func bruteNearestK(pts []Point, q Point, self, k int) []int {
	var cand []int
	for i := range pts {
		if i != self {
			cand = append(cand, i)
		}
	}
	slices.SortFunc(cand, func(a, b int) int {
		if da, db := pts[a].Dist2(q), pts[b].Dist2(q); da != db {
			if da < db {
				return -1
			}
			return 1
		}
		return a - b
	})
	return cand[:min(k, len(cand))]
}

// bruteNearestWithin is the reference for NearestWithin: the lowest
// (squared distance, index) among the range hits.
func bruteNearestWithin(pts []Point, q Point, r float64) int {
	best := -1
	for _, i := range bruteWithin(pts, q, r) {
		if best < 0 || pts[i].Dist2(q) < pts[best].Dist2(q) {
			best = i
		}
	}
	return best
}

// queryFamily is one point set the exactness tests run every query on.
type queryFamily struct {
	name string
	pts  []Point
}

// queryFamilies returns point sets that stress the cell arithmetic:
// uniform; an integer lattice with duplicates, whose distance ties and
// points on cell borders exercise the tie-break and the cell map;
// clusters; a line; one coincident spot; and a 100 m field 1e17 m up,
// where coordinates are 16 m apart.
func queryFamilies(s *rng.Source) []queryFamily {
	uniform := randPoints(s, 300, 200)
	lattice := make([]Point, 250)
	for i := range lattice {
		lattice[i] = Pt(float64(s.Intn(11)), float64(s.Intn(11)))
	}
	var clustered []Point
	for c := 0; c < 5; c++ {
		cx, cy := s.Uniform(0, 500), s.Uniform(0, 500)
		for i := 0; i < 60; i++ {
			clustered = append(clustered, Pt(cx+s.Uniform(-2, 2), cy+s.Uniform(-2, 2)))
		}
	}
	line := make([]Point, 120)
	for i := range line {
		line[i] = Pt(s.Uniform(0, 100), 3)
	}
	same := make([]Point, 20)
	for i := range same {
		same[i] = Pt(7.5, -2)
	}
	far := make([]Point, 60)
	for i := range far {
		far[i] = Pt(s.Uniform(0, 100), 1e17+s.Uniform(0, 100))
	}
	return []queryFamily{
		{"uniform", uniform}, {"lattice", lattice}, {"clustered", clustered},
		{"collinear", line}, {"coincident", same}, {"offset-1e17", far},
	}
}

// indexesFor builds the family's point set under several cell sizes:
// the occupancy-sized grid the tsp lists use, and fixed cells that put
// lattice points on cell borders or hold many points per cell.
func indexesFor(pts []Point) []*GridIndex {
	return []*GridIndex{
		NewGridIndexAuto(pts, 1), NewGridIndexAuto(pts, 0), NewGridIndex(pts, 1),
		NewGridIndex(pts, 7), NewGridIndexFor(pts, 30), NewGridIndex(pts, 1000),
	}
}

// queriesFor returns query points: every indexed point (with its own
// index as self), points inside the bounding box, points just outside
// it and points far outside it.
func queriesFor(s *rng.Source, pts []Point) (qs []Point, selves []int) {
	b := Bound(pts)
	for i, p := range pts {
		if i%3 == 0 {
			qs, selves = append(qs, p), append(selves, i)
		}
	}
	w, h := b.Max.X-b.Min.X+1, b.Max.Y-b.Min.Y+1
	for i := 0; i < 20; i++ {
		in := Pt(b.Min.X+s.Uniform(0, w), b.Min.Y+s.Uniform(0, h))
		near := Pt(b.Min.X+s.Uniform(-w, 2*w), b.Min.Y+s.Uniform(-h, 2*h))
		qs, selves = append(qs, in, near), append(selves, -1, -1)
	}
	qs = append(qs, Pt(b.Min.X-1e20, b.Min.Y), Pt(b.Max.X, b.Max.Y+1e20), Pt(-1e300, 1e300), Pt(b.Min.X-3*w, b.Max.Y+5*h))
	selves = append(selves, -1, -1, -1, -1)
	return qs, selves
}

// TestNearestKMatchesBrute pins the ring search to brute force: the
// same indices in the same (squared distance, index) order, the same
// distances, for k from 1 past n-1, on every family, cell size and
// query, inside and outside the bounding box.
func TestNearestKMatchesBrute(t *testing.T) {
	s := rng.New(31)
	for _, fam := range queryFamilies(s) {
		qs, selves := queriesFor(s, fam.pts)
		n := len(fam.pts)
		for gi, g := range indexesFor(fam.pts) {
			for qi, q := range qs {
				for _, k := range []int{1, 5, 12, n - 1, n, n + 3} {
					nbr := make([]int, k)
					d2 := make([]float64, k)
					m := g.NearestK(q, selves[qi], nbr, d2)
					want := bruteNearestK(fam.pts, q, selves[qi], k)
					what := fmt.Sprintf("%s/index %d (cell %v) query %d %v self %d k=%d", fam.name, gi, g.cell, qi, q, selves[qi], k)
					if !slices.Equal(nbr[:m], want) {
						t.Fatalf("%s: NearestK = %v, brute %v", what, nbr[:m], want)
					}
					for j, i := range want {
						if d2[j] != fam.pts[i].Dist2(q) {
							t.Fatalf("%s: d2[%d] = %v, want %v", what, j, d2[j], fam.pts[i].Dist2(q))
						}
					}
				}
			}
		}
	}
}

// TestGridIndexQueriesMatchBrute holds Within, NearestWithin and Nearest
// to brute force on the same families, queries and cell sizes, at radii
// from 0 to far past the field (1e17 and 1e30 m, where the cell range
// used to overflow int or walk 1e16 rows).
func TestGridIndexQueriesMatchBrute(t *testing.T) {
	s := rng.New(32)
	for _, fam := range queryFamilies(s) {
		qs, _ := queriesFor(s, fam.pts)
		for gi, g := range indexesFor(fam.pts) {
			for qi, q := range qs {
				what := fmt.Sprintf("%s/index %d (cell %v) query %d %v", fam.name, gi, g.cell, qi, q)
				if got, want := g.Nearest(q, nil), bruteNearest(fam.pts, q, nil); got != want {
					t.Fatalf("%s: Nearest = %d, brute %d", what, got, want)
				}
				for _, r := range []float64{0, 0.5, 1, 3, 30, 1e17, 1e30, math.Inf(1)} {
					sameIndexSet(t, g.Within(q, r, nil), bruteWithin(fam.pts, q, r), fmt.Sprintf("%s r=%v Within", what, r))
					got, gotD2 := g.NearestWithin(q, r)
					if want := bruteNearestWithin(fam.pts, q, r); got != want {
						t.Fatalf("%s r=%v: NearestWithin = %d, brute %d", what, r, got, want)
					}
					if got >= 0 && gotD2 != fam.pts[got].Dist2(q) {
						t.Fatalf("%s r=%v: NearestWithin d2 = %v, want %v", what, r, gotD2, fam.pts[got].Dist2(q))
					}
				}
			}
		}
	}
}

// FuzzGridIndexQueries decodes bytes into at most 64 points, a query, a
// radius, k and an index constructor, and holds Within, NearestWithin,
// Nearest and NearestK to brute force. The header picks a coordinate
// scale and offset (down to 1e-9 m cells, up to a 1e17 offset and
// 1e100-scale fields) so lattice ties, coincident points, offset fields
// and radii far past the field all occur; the committed corpus under
// testdata/fuzz holds one input of each.
//
// Layout: scale, offset, k, radius, query x, query y, constructor (an
// odd byte queries an indexed point as self), then x, y per point.
func FuzzGridIndexQueries(f *testing.F) {
	scales := []float64{1, 0.37, 13, 1e-9, 1e6, 1e100}
	offsets := []float64{0, -5e3, 1e9, 1e17}
	radii := []float64{0, 1e17, 1e30, math.Inf(1)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		scale := scales[int(data[0])%len(scales)]
		off := offsets[int(data[1])%len(offsets)]
		k := int(data[2]) % 70
		coord := func(b byte) float64 { return off + scale*float64(b) }
		q := Pt(off+scale*(float64(data[4])-64), coord(data[5]))
		r := scale * float64(data[3]) / 16
		if data[3] >= 252 {
			r = radii[data[3]-252]
		}
		build := data[6]
		rest := data[7:]
		n := min(len(rest)/2, 64)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(coord(rest[2*i]), coord(rest[2*i+1]))
		}
		var g *GridIndex
		switch build % 3 {
		case 0:
			g = NewGridIndexAuto(pts, float64(build%5))
		case 1:
			g = NewGridIndex(pts, scale*(1+float64(build%7)))
		default:
			g = NewGridIndexFor(pts, scale*(1+float64(build%11)))
		}
		self := -1
		if n > 0 && build%2 == 1 {
			self = int(build) % n
			q = pts[self]
		}
		sameIndexSet(t, g.Within(q, r, nil), bruteWithin(pts, q, r), "Within")
		if got, want := g.Nearest(q, nil), bruteNearest(pts, q, nil); got != want {
			t.Fatalf("Nearest = %d, brute %d", got, want)
		}
		if got, _ := g.NearestWithin(q, r); got != bruteNearestWithin(pts, q, r) {
			t.Fatalf("NearestWithin = %d, brute %d", got, bruteNearestWithin(pts, q, r))
		}
		nbr := make([]int, k)
		d2 := make([]float64, k)
		m := g.NearestK(q, self, nbr, d2)
		if want := bruteNearestK(pts, q, self, k); !slices.Equal(nbr[:m], want) {
			t.Fatalf("NearestK(k=%d, self=%d) = %v, brute %v", k, self, nbr[:m], want)
		}
	})
}
