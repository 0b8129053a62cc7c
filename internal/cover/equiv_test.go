package cover

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mobicol/internal/bitset"
	"mobicol/internal/geom"
	"mobicol/internal/par"
	"mobicol/internal/rng"
)

// naiveGreedy is the pre-CELF full-scan selection, kept as the oracle the
// lazy heap must match pick for pick.
func naiveGreedy(in *Instance, tieBreak geom.Point) ([]int, error) {
	if err := in.Err(); err != nil {
		return nil, err
	}
	uncovered := bitset.New(in.Universe)
	uncovered.Fill()
	var chosen []int
	for uncovered.Count() > 0 {
		best, bestGain := -1, 0
		var bestDist float64
		for c, set := range in.CoverSets() {
			newly := set.Clone()
			newly.And(uncovered)
			gain := newly.Count()
			if gain == 0 {
				continue
			}
			d := in.Candidates[c].Dist2(tieBreak)
			if gain > bestGain || (gain == bestGain && d < bestDist) {
				best, bestGain, bestDist = c, gain, d
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("cover: greedy stalled with %d sensors uncovered", uncovered.Count())
		}
		chosen = append(chosen, best)
		uncovered.AndNot(in.CoverSets()[best])
	}
	return chosen, nil
}

func TestGreedyMatchesNaiveOracle(t *testing.T) {
	cases := []struct {
		n    int
		side float64
	}{{120, 200}, {250, 350}}
	for _, tc := range cases {
		for seed := uint64(20); seed < 24; seed++ {
			sensors := randSensors(rng.New(seed), tc.n, tc.side)
			in := NewInstance(sensors, sensors, 30)
			sink := geom.Pt(tc.side/2, tc.side/2)
			want, err := naiveGreedy(in, sink)
			if err != nil {
				t.Fatalf("n=%d seed=%d: oracle: %v", tc.n, seed, err)
			}
			got, err := in.Greedy(sink)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", tc.n, seed, err)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d seed=%d: %d picks, oracle %d", tc.n, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d seed=%d: pick %d = candidate %d, oracle chose %d",
						tc.n, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestInstancePoolEquivalence pins the tentpole contract for the cover
// layer: parallel construction must be byte-identical to sequential —
// same kept candidates, same cover sets, same greedy picks.
func TestInstancePoolEquivalence(t *testing.T) {
	cases := []struct {
		n    int
		side float64
	}{{150, 200}, {400, 400}}
	for _, tc := range cases {
		for seed := uint64(30); seed < 33; seed++ {
			sensors := randSensors(rng.New(seed), tc.n, tc.side)
			src := rng.New(seed + 100)
			radii := make([]float64, tc.n)
			for i := range radii {
				radii[i] = src.Uniform(20, 40)
			}
			seqIn := NewInstanceRadiiPool(sensors, radii, sensors, par.Seq())
			parIn := NewInstanceRadiiPool(sensors, radii, sensors, par.Workers(8))
			if len(parIn.Candidates) != len(seqIn.Candidates) {
				t.Fatalf("n=%d seed=%d: %d candidates parallel, %d sequential",
					tc.n, seed, len(parIn.Candidates), len(seqIn.Candidates))
			}
			for i := range seqIn.Candidates {
				if !parIn.Candidates[i].Eq(seqIn.Candidates[i]) {
					t.Fatalf("n=%d seed=%d: candidate %d differs", tc.n, seed, i)
				}
				if !slices.Equal(parIn.Cover(i), seqIn.Cover(i)) {
					t.Fatalf("n=%d seed=%d: cover %d differs", tc.n, seed, i)
				}
			}
			sink := geom.Pt(tc.side/2, tc.side/2)
			seqPicks, err := seqIn.Greedy(sink)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", tc.n, seed, err)
			}
			parPicks, err := parIn.Greedy(sink)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", tc.n, seed, err)
			}
			if len(seqPicks) != len(parPicks) {
				t.Fatalf("n=%d seed=%d: pick counts differ", tc.n, seed)
			}
			for i := range seqPicks {
				if seqPicks[i] != parPicks[i] {
					t.Fatalf("n=%d seed=%d: pick %d differs: %d vs %d",
						tc.n, seed, i, parPicks[i], seqPicks[i])
				}
			}
		}
	}
}

// newInstanceRef is the candidate-major construction the sensor-major
// build replaced, kept as its oracle: each candidate queries the sensors
// within the largest range, keeps those within their own, and sorts its
// list; the kept candidates are folded into CSR in input order.
func newInstanceRef(sensors []geom.Point, radii []float64, candidates []geom.Point, pool par.Pool) *Instance {
	maxR := 0.0
	for _, r := range radii {
		maxR = max(maxR, r)
	}
	inst := &Instance{Universe: len(sensors), off: []int32{0}}
	if len(sensors) == 0 {
		return inst
	}
	sidx := geom.NewGridIndexFor(sensors, maxR)
	lists := make([][]int32, len(candidates))
	pool.ForChunks(len(candidates), func(lo, hi int) {
		buf := make([]int, 0, 64)
		for ci := lo; ci < hi; ci++ {
			c := candidates[ci]
			buf = sidx.Within(c, maxR, buf[:0])
			var list []int32
			for _, s := range buf {
				if sensors[s].Dist2(c) <= radii[s]*radii[s]+geom.Eps {
					list = append(list, int32(s))
				}
			}
			slices.Sort(list)
			lists[ci] = list
		}
	})
	for ci, l := range lists {
		if len(l) == 0 {
			continue
		}
		inst.Candidates = append(inst.Candidates, candidates[ci])
		inst.idx = append(inst.idx, l...)
		inst.off = append(inst.off, int32(len(inst.idx)))
	}
	return inst
}

// TestInstanceMatchesReference holds the sensor-major build to the
// candidate-major oracle: the same kept candidates bit for bit, offsets
// and cover lists, on uniform, clustered and coincident sensors, with
// sensor-site, 20 m grid and intersection candidates (the last sit on
// range circles, where the pair test's epsilon decides), with a coarse
// grid alone (sensors no candidate covers), under one range and under
// per-sensor ranges, at pools of 1, 3 and 8.
func TestInstanceMatchesReference(t *testing.T) {
	type field struct {
		name    string
		sensors []geom.Point
		side    float64
	}
	s := rng.New(41)
	var fields []field
	for _, n := range []int{1, 7, 100, 400} {
		fields = append(fields, field{fmt.Sprintf("uniform-%d", n), randSensors(s, n, 200), 200})
	}
	var clustered []geom.Point
	for c := 0; c < 5; c++ {
		cx, cy := s.Uniform(20, 280), s.Uniform(20, 280)
		for i := 0; i < 40; i++ {
			clustered = append(clustered, geom.Pt(cx+s.Uniform(-8, 8), cy+s.Uniform(-8, 8)))
		}
	}
	fields = append(fields, field{"clustered", clustered, 300})
	coincident := randSensors(s, 30, 100)
	for i := 10; i < 30; i++ {
		coincident[i] = coincident[i%10]
	}
	fields = append(fields, field{"coincident", coincident, 100})

	for _, f := range fields {
		sq := geom.Square(f.side)
		sites := mustCandidates(t, f.sensors, sq, 30, SensorSites, 0)
		grid := mustCandidates(t, f.sensors, sq, 30, FieldGrid, 20)
		cross := mustCandidates(t, f.sensors, sq, 30, Intersections, 0)
		uniform := make([]float64, len(f.sensors))
		hetero := make([]float64, len(f.sensors))
		for i := range uniform {
			uniform[i] = 30
			hetero[i] = s.Uniform(15, 45)
		}
		cases := []struct {
			name  string
			radii []float64
			cands []geom.Point
		}{
			{"sites", uniform, sites}, {"grid", uniform, grid}, {"intersections", uniform, cross},
			{"coarse-grid-only", uniform, sq.GridPoints(90)},
			{"hetero-sites", hetero, sites}, {"hetero-grid", hetero, grid},
		}
		for _, c := range cases {
			want := newInstanceRef(f.sensors, c.radii, c.cands, par.Seq())
			for _, workers := range []int{1, 3, 8} {
				got := NewInstanceRadiiPool(f.sensors, c.radii, c.cands, par.Workers(workers))
				name := fmt.Sprintf("%s/%s/workers=%d", f.name, c.name, workers)
				if got.Universe != want.Universe || got.err != nil {
					t.Fatalf("%s: universe %d err %v, want %d and no error", name, got.Universe, got.err, want.Universe)
				}
				if !slices.Equal(got.Candidates, want.Candidates) {
					t.Fatalf("%s: kept %d candidates, oracle %d, or a position differs", name, len(got.Candidates), len(want.Candidates))
				}
				if !slices.Equal(got.off, want.off) || !slices.Equal(got.idx, want.idx) {
					t.Fatalf("%s: cover lists differ from the oracle's", name)
				}
			}
		}
	}
}

func BenchmarkGreedy(b *testing.B) {
	for _, n := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			side := 200 * math.Sqrt(float64(n)/100)
			sensors := randSensors(rng.New(1), n, side)
			in := NewInstance(sensors, sensors, 30)
			sink := geom.Pt(side/2, side/2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.Greedy(sink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
