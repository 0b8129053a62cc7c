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
