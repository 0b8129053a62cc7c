package shdgp

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"mobicol/internal/bitset"
	"mobicol/internal/check"
	"mobicol/internal/cover"
	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/par"
	"mobicol/internal/tsp"
	"mobicol/internal/wsn"
)

// subsetOf reports whether every element of a is in b.
func subsetOf(a, b *bitset.Set) bool {
	rest := a.Clone()
	rest.AndNot(b)
	return rest.Empty()
}

// dropRedundantOracle is the pre-cache fixed-point implementation:
// remove the first redundant stop, restart, repeat.
func dropRedundantOracle(inst *cover.Instance, chosen *[]int) bool {
	covers := inst.CoverSets()
	dropped := false
	for {
		cur := *chosen
		removeAt := -1
		for i := range cur {
			rest := bitset.New(inst.Universe)
			for j, c := range cur {
				if j != i {
					rest.Or(covers[c])
				}
			}
			if subsetOf(covers[cur[i]], rest) {
				removeAt = i
				break
			}
		}
		if removeAt < 0 {
			return dropped
		}
		*chosen = append(cur[:removeAt], cur[removeAt+1:]...)
		dropped = true
	}
}

func TestDropRedundantMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		p := deploy(180, 220, 30, seed)
		inst, err := p.Instance()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		chosen, err := inst.Greedy(p.Net.Sink)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Greedy covers are rarely redundant; pad with extra candidates so
		// the removal path actually runs.
		padded := append([]int(nil), chosen...)
		for c := 0; c < inst.NumCandidates() && len(padded) < len(chosen)+12; c += 5 {
			padded = append(padded, c)
		}
		got := append([]int(nil), padded...)
		want := append([]int(nil), padded...)
		gotDrop := dropRedundant(inst, &got, newRefineScratch(inst))
		wantDrop := dropRedundantOracle(inst, &want)
		if gotDrop != wantDrop {
			t.Fatalf("seed %d: dropped=%v, oracle %v", seed, gotDrop, wantDrop)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: kept %d stops, oracle kept %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: slot %d = %d, oracle %d", seed, i, got[i], want[i])
			}
		}
	}
}

// tourNeighbors returns the points before and after chosen[i] on the
// tour that visits chosen in order from the sink.
func tourNeighbors(p *Problem, inst *cover.Instance, chosen []int, i int) (prev, next geom.Point) {
	prev, next = p.Net.Sink, p.Net.Sink
	if i > 0 {
		prev = inst.Candidates[chosen[i-1]]
	}
	if i+1 < len(chosen) {
		next = inst.Candidates[chosen[i+1]]
	}
	return prev, next
}

// relocateStopsOracle is the pre-cache implementation: critical sets via
// an O(k) bitset union per stop, replacements via a scan of every
// candidate. chosen is in visit order, and each stop's neighbours are
// read from it with earlier edits in place. A stop without critical
// sensors is spliced out, as relocateStops does.
func relocateStopsOracle(p *Problem, inst *cover.Instance, chosen *[]int) int {
	covers := inst.CoverSets()
	moved := 0
	for i := 0; i < len(*chosen); {
		cur := *chosen
		prev, next := tourNeighbors(p, inst, cur, i)
		critical := covers[cur[i]].Clone()
		for j, c := range cur {
			if j != i {
				critical.AndNot(covers[c])
			}
		}
		if critical.Empty() {
			*chosen = append(cur[:i], cur[i+1:]...)
			continue
		}
		at := inst.Candidates[cur[i]]
		bestCost := prev.Dist(at) + at.Dist(next)
		bestCand := cur[i]
		for c := range covers {
			if c == cur[i] {
				continue
			}
			if !subsetOf(critical, covers[c]) {
				continue
			}
			alt := inst.Candidates[c]
			if cost := prev.Dist(alt) + alt.Dist(next); cost < bestCost-1e-9 {
				bestCost = cost
				bestCand = c
			}
		}
		if bestCand != cur[i] {
			cur[i] = bestCand
			moved++
		}
		i++
	}
	return moved
}

func TestRelocateStopsMatchesOracle(t *testing.T) {
	for seed := uint64(10); seed < 16; seed++ {
		p := deploy(160, 240, 30, seed)
		inst, err := p.Instance()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		chosen, err := inst.Greedy(p.Net.Sink)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		chosen = visitOrder(p, inst, chosen, tsp.DefaultOptions())
		got := append([]int(nil), chosen...)
		want := append([]int(nil), chosen...)
		gotMoved := relocateStops(p, inst, &got, newRefineScratch(inst))
		wantMoved := relocateStopsOracle(p, inst, &want)
		if gotMoved != wantMoved {
			t.Fatalf("seed %d: moved %d, oracle %d", seed, gotMoved, wantMoved)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: stops %v, oracle %v", seed, got, want)
		}
	}
}

// relocateStopsRef is the reference relocateStops is held to over whole
// refine runs. It splices a stop without critical sensors out by index
// and reads each stop's neighbours with tourNeighbors, and it also
// returns how many stops it spliced out. A stop with critical sensors
// scans the coverers of the first one, as relocateStops does
// (TestRelocateStopsMatchesOracle holds that scan to one over every
// candidate).
func relocateStopsRef(p *Problem, inst *cover.Instance, chosen *[]int, rs *refineScratch) (moved, dropped int) {
	rs.resetCounts(inst, *chosen)
	counts := rs.counts
	for i := 0; i < len(*chosen); {
		cur := *chosen
		prev, next := tourNeighbors(p, inst, cur, i)
		var critical []int32
		for _, s := range inst.Cover(cur[i]) {
			if counts[s] == 1 {
				critical = append(critical, s)
			}
		}
		if len(critical) == 0 {
			for _, s := range inst.Cover(cur[i]) {
				counts[s]--
			}
			*chosen = append(cur[:i], cur[i+1:]...)
			dropped++
			continue
		}
		at := inst.Candidates[cur[i]]
		bestCost := prev.Dist(at) + at.Dist(next)
		bestCand := cur[i]
		for _, c32 := range inst.Coverers(int(critical[0])) {
			c := int(c32)
			if c == cur[i] || !cover.SubsetOfSorted(critical, inst.Cover(c)) {
				continue
			}
			alt := inst.Candidates[c]
			if cost := prev.Dist(alt) + alt.Dist(next); cost < bestCost-1e-9 {
				bestCost = cost
				bestCand = c
			}
		}
		if bestCand != cur[i] {
			for _, s := range inst.Cover(cur[i]) {
				counts[s]--
			}
			for _, s := range inst.Cover(bestCand) {
				counts[s]++
			}
			cur[i] = bestCand
			moved++
		}
		i++
	}
	return moved, dropped
}

// TestRelocateStopsMatchesFullScan runs every refine pass twice, with
// relocateStops and with relocateStopsRef, on uniform and clustered
// fields under each candidate strategy, and requires the same stops
// after every pass. (Its reference once scanned every candidate for a
// stop without critical sensors; such a stop is now spliced out.) The
// drop branch must fire under every strategy. It fires only when a
// relocation leaves a later stop of the same pass without critical
// sensors, so a strategy may need more than one field to reach it.
func TestRelocateStopsMatchesFullScan(t *testing.T) {
	all := []cover.CandidateStrategy{cover.SensorSites, cover.FieldGrid, cover.Intersections}
	fields := []struct {
		name       string
		cfg        wsn.Config
		strategies []cover.CandidateStrategy
	}{
		// Intersections run on the 2k fields only: at 5k and 10k they
		// build 260k-285k candidates, about a minute under -race.
		{"uniform-2k", wsn.Config{N: 2000, FieldSide: 200 * math.Sqrt(20), Range: 30, Seed: 21}, all},
		{"clustered-2k", wsn.Config{N: 2000, FieldSide: 200 * math.Sqrt(20), Range: 30, Placement: wsn.Clustered, Clusters: 25, Seed: 24}, all[2:]},
		{"clustered-5k", wsn.Config{N: 5000, FieldSide: 200 * math.Sqrt(50), Range: 30, Placement: wsn.Clustered, Clusters: 25, Seed: 22}, all[:2]},
		{"uniform-10k", wsn.Config{N: 10000, FieldSide: 2000, Range: 30, Seed: 23}, all[:2]},
	}
	if testing.Short() {
		fields = fields[:2]
	}
	dropped := map[cover.CandidateStrategy]int{}
	for _, f := range fields {
		nw := wsn.MustDeploy(f.cfg)
		for _, strategy := range f.strategies {
			p := &Problem{Net: nw, Strategy: strategy}
			inst, err := p.Instance()
			if err != nil {
				t.Fatalf("%s/%v: %v", f.name, strategy, err)
			}
			chosen, err := inst.Greedy(p.Net.Sink)
			if err != nil {
				t.Fatalf("%s/%v: %v", f.name, strategy, err)
			}
			chosen = visitOrder(p, inst, chosen, tsp.DefaultOptions())
			got, want := chosen, append([]int(nil), chosen...)
			rs, ref := newRefineScratch(inst), newRefineScratch(inst)
			for pass := 0; pass < refinePasses; pass++ {
				dropRedundant(inst, &got, rs)
				dropRedundant(inst, &want, ref)
				gotMoved := relocateStops(p, inst, &got, rs)
				wantMoved, d := relocateStopsRef(p, inst, &want, ref)
				dropped[strategy] += d
				if gotMoved != wantMoved || !slices.Equal(got, want) {
					t.Fatalf("%s/%v pass %d: moved %d, reference %d; stops differ: %v",
						f.name, strategy, pass, gotMoved, wantMoved, !slices.Equal(got, want))
				}
			}
		}
	}
	for _, strategy := range all {
		if dropped[strategy] == 0 {
			t.Errorf("%v: the drop branch never fired", strategy)
		}
	}
}

// TestPlanPoolEquivalence pins the tentpole contract end to end: a full
// Plan run under an 8-worker pool must match the sequential run on every
// deterministic output — stops, assignment, and the canonical obs trace
// (which embeds tour lengths, span structure, and every metric).
func TestPlanPoolEquivalence(t *testing.T) {
	canonicalRun := func(n int, side float64, seed uint64, pool par.Pool) (*Solution, []string) {
		t.Helper()
		p := deploy(n, side, 30, seed)
		p.Pool = pool
		var buf bytes.Buffer
		tr := obs.New(&buf)
		opts := DefaultPlannerOptions()
		opts.Obs = tr
		sol, err := Plan(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Equivalence alone is not enough — both runs must also be
		// *valid*: full single-hop coverage on a sink-anchored tour.
		if err := check.Plan(p.Net, sol.Plan, check.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := sol.Validate(p); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
			c, err := obs.CanonicalLine(line)
			if err != nil {
				t.Fatalf("trace line %q: %v", line, err)
			}
			if c != nil {
				lines = append(lines, string(c))
			}
		}
		return sol, lines
	}
	cases := []struct {
		n    int
		side float64
	}{{100, 200}, {200, 300}}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			seqSol, seqTrace := canonicalRun(tc.n, tc.side, seed, par.Seq())
			parSol, parTrace := canonicalRun(tc.n, tc.side, seed, par.Workers(8))
			if len(parSol.Plan.Stops) != len(seqSol.Plan.Stops) {
				t.Fatalf("n=%d seed=%d: %d stops parallel, %d sequential",
					tc.n, seed, len(parSol.Plan.Stops), len(seqSol.Plan.Stops))
			}
			for i := range seqSol.Plan.Stops {
				if !parSol.Plan.Stops[i].Eq(seqSol.Plan.Stops[i]) {
					t.Fatalf("n=%d seed=%d: stop %d differs", tc.n, seed, i)
				}
			}
			for i := range seqSol.Plan.UploadAt {
				if parSol.Plan.UploadAt[i] != seqSol.Plan.UploadAt[i] {
					t.Fatalf("n=%d seed=%d: sensor %d uploads at %d vs %d",
						tc.n, seed, i, parSol.Plan.UploadAt[i], seqSol.Plan.UploadAt[i])
				}
			}
			if len(parTrace) != len(seqTrace) {
				t.Fatalf("n=%d seed=%d: trace lengths differ: %d vs %d",
					tc.n, seed, len(parTrace), len(seqTrace))
			}
			for i := range seqTrace {
				if parTrace[i] != seqTrace[i] {
					t.Fatalf("n=%d seed=%d: trace line %d differs:\npar: %s\nseq: %s",
						tc.n, seed, i, parTrace[i], seqTrace[i])
				}
			}
		}
	}
}

func BenchmarkPlan(b *testing.B) {
	for _, n := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			side := 200 * math.Sqrt(float64(n)/100)
			p := deploy(n, side, 30, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Plan(context.Background(), p, DefaultPlannerOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
