package replan

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mobicol/internal/collector"
	"mobicol/internal/par"
)

// planHash is an FNV-64a hash of a plan's stops, bit for bit, and its
// assignment.
func planHash(p *collector.TourPlan) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(p.Stops)))
	for _, s := range p.Stops {
		put(math.Float64bits(s.X))
		put(math.Float64bits(s.Y))
	}
	put(uint64(len(p.UploadAt)))
	for _, s := range p.UploadAt {
		put(uint64(int64(s)))
	}
	return h.Sum64()
}

// TestRepairFingerprint pins warm plans themselves, not just their
// length: a rehome or splice that breaks a distance tie the other way
// moves an assignment or a stop without changing the tour's length,
// which E17's warm ratio cannot see. Each case repairs the seed-1
// n = 20k paper-density field's cold plan after one Perturb delta (the
// largest ejects stops), at one and two workers, and compares the plan's
// hash and the repair's stats with the values recorded when the test was
// written.
func TestRepairFingerprint(t *testing.T) {
	nw := deploy(20_000, 200*math.Sqrt(200), 30, 1)
	prev := coldPlan(t, nw)
	cases := []struct {
		frac  float64
		seed  uint64
		hash  uint64
		stats Stats
	}{
		{0.01, 1, 0xb60644c20d23141b, Stats{Kept: 19891, Rehomed: 84, Recovered: 25, NewStops: 25, Moves: 26}},
		{0.01, 2, 0xc694fd6fba1bcc16, Stats{Kept: 19884, Rehomed: 86, Recovered: 30, NewStops: 30, Moves: 36}},
		{0.05, 3, 0xf000ec1666251b98, Stats{Kept: 19454, Rehomed: 397, Recovered: 149, NewStops: 140, Moves: 152}},
		{0.25, 4, 0xd5959f4040e47318, Stats{Kept: 17191, Rehomed: 2097, Recovered: 712, NewStops: 561, Ejected: 3, Moves: 651}},
	}
	for _, c := range cases {
		nw2, carried, err := Perturb(nw, c.frac, c.seed).Apply(nw, prev.UploadAt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			got, st, err := Repair(context.Background(), nw2, prev, carried, Options{Pool: par.Workers(workers)})
			if err != nil {
				t.Fatal(err)
			}
			if h := planHash(got); h != c.hash || st != c.stats {
				t.Errorf("Perturb(%g, %d), %d workers: plan hash %#x, stats %+v; want %#x, %+v",
					c.frac, c.seed, workers, h, st, c.hash, c.stats)
			}
		}
	}
}
