package replan

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"mobicol/internal/check"
	"mobicol/internal/collector"
	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/par"
	"mobicol/internal/shdgp"
	"mobicol/internal/wsn"
)

// RepairDelta applies d to the previous scenario and repairs prev for the
// resulting network: the one-call form the delta tests drive.
func RepairDelta(prevNet *wsn.Network, prev *collector.TourPlan, d Delta, opts Options) (*wsn.Network, *collector.TourPlan, Stats, error) {
	if len(prev.UploadAt) != prevNet.N() {
		return nil, nil, Stats{}, fmt.Errorf("replan: plan assigns %d sensors, previous network has %d", len(prev.UploadAt), prevNet.N())
	}
	nw, carried, err := d.Apply(prevNet, prev.UploadAt)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	plan, st, err := Repair(context.Background(), nw, prev, carried, opts)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	return nw, plan, st, nil
}

func deploy(n int, side, r float64, seed uint64) *wsn.Network {
	return wsn.MustDeploy(wsn.Config{N: n, FieldSide: side, Range: r, Seed: seed})
}

func coldPlan(t testing.TB, nw *wsn.Network) *collector.TourPlan {
	t.Helper()
	sol, err := shdgp.Plan(context.Background(), shdgp.NewProblem(nw), shdgp.DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sol.Plan
}

func samePlan(a, b *collector.TourPlan) bool {
	if !a.Sink.Eq(b.Sink) || len(a.Stops) != len(b.Stops) {
		return false
	}
	for i := range a.Stops {
		if a.Stops[i] != b.Stops[i] {
			return false
		}
	}
	return slices.Equal(a.UploadAt, b.UploadAt)
}

// TestRepairEmptyDeltaIsIdentity pins the metamorphic anchor: repairing a
// plan against its own unchanged scenario returns a bit-identical plan
// and touches nothing.
func TestRepairEmptyDeltaIsIdentity(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		nw := deploy(250, 300, 30, seed)
		prev := coldPlan(t, nw)
		got, st, err := Repair(context.Background(), nw, prev, CarryPositional(prev, nw.N()), Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !samePlan(prev, got) {
			t.Fatalf("seed %d: repair of the empty delta changed the plan", seed)
		}
		if st.Dirty() != 0 || st.NewStops != 0 || st.Ejected != 0 || st.Moves != 0 {
			t.Fatalf("seed %d: empty delta touched state: %+v", seed, st)
		}
		if st.Kept != nw.N() {
			t.Fatalf("seed %d: kept %d of %d sensors", seed, st.Kept, nw.N())
		}
	}
}

// TestRepairDeltaOracleAndQuality: after a small random delta, the
// repaired plan must satisfy the full plan oracle and stay within the
// pinned warm/cold quality ratio of a from-scratch replan.
func TestRepairDeltaOracleAndQuality(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		nw := deploy(400, 400, 30, seed)
		prev := coldPlan(t, nw)
		d := Perturb(nw, 0.02, seed+100)
		nw2, warm, st, err := RepairDelta(nw, prev, d, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := check.Plan(nw2, warm, check.Options{}); err != nil {
			t.Fatalf("seed %d: repaired plan fails the oracle: %v", seed, err)
		}
		cold := coldPlan(t, nw2)
		if err := check.WarmQuality(warm.Length(), cold.Length()); err != nil {
			t.Fatalf("seed %d (stats %+v): %v", seed, st, err)
		}
		if st.Kept+st.Dirty() != nw2.N() {
			t.Fatalf("seed %d: %d kept + %d dirty != %d sensors", seed, st.Kept, st.Dirty(), nw2.N())
		}
	}
}

// TestRepairPoolEquivalence: the repaired plan must be byte-identical at
// any worker-pool size — the same contract the cold planner pins.
func TestRepairPoolEquivalence(t *testing.T) {
	for seed := uint64(2); seed <= 5; seed++ {
		nw := deploy(500, 450, 30, seed)
		prev := coldPlan(t, nw)
		d := Perturb(nw, 0.03, seed+7)
		_, seq, stSeq, err := RepairDelta(nw, prev, d, Options{Pool: par.Seq()})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, par8, stPar, err := RepairDelta(nw, prev, d, Options{Pool: par.Workers(8)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !samePlan(seq, par8) {
			t.Fatalf("seed %d: Workers(8) repair diverged from sequential", seed)
		}
		if stSeq != stPar {
			t.Fatalf("seed %d: stats diverged: %+v vs %+v", seed, stSeq, stPar)
		}
	}
}

// TestRepairRemovalEjectsStops: removing every sensor in a region must
// eject the stops that served only that region, and the plan stays valid.
func TestRepairRemovalEjectsStops(t *testing.T) {
	nw := deploy(300, 350, 30, 11)
	prev := coldPlan(t, nw)
	// Remove every sensor in the left third of the field.
	var d Delta
	for i, node := range nw.Nodes {
		if node.Pos.X < nw.Field.Min.X+nw.Field.Width()/3 {
			d.Removed = append(d.Removed, i)
		}
	}
	if len(d.Removed) < 20 {
		t.Fatalf("degenerate scenario: only %d sensors in the region", len(d.Removed))
	}
	nw2, got, st, err := RepairDelta(nw, prev, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Plan(nw2, got, check.Options{}); err != nil {
		t.Fatal(err)
	}
	if st.Ejected == 0 {
		t.Fatalf("removed %d sensors but ejected no stops: %+v", len(d.Removed), st)
	}
	if st.NewStops != 0 {
		t.Fatalf("pure removal created %d new stops", st.NewStops)
	}
	if len(got.Stops) != len(prev.Stops)-st.Ejected {
		t.Fatalf("%d stops after ejecting %d of %d", len(got.Stops), st.Ejected, len(prev.Stops))
	}
}

// TestRepairAdditionKeepsOldStops: adding sensors far from coverage must
// mint new stops while every surviving previous stop stays in the tour.
func TestRepairAdditionKeepsOldStops(t *testing.T) {
	nw := deploy(200, 300, 30, 13)
	prev := coldPlan(t, nw)
	d := Delta{Added: []geom.Point{
		{X: nw.Field.Max.X - 1, Y: nw.Field.Max.Y - 1},
		{X: nw.Field.Max.X - 2, Y: nw.Field.Min.Y + 1},
	}}
	nw2, got, st, err := RepairDelta(nw, prev, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Plan(nw2, got, check.Options{}); err != nil {
		t.Fatal(err)
	}
	if st.Ejected != 0 {
		t.Fatalf("pure addition ejected %d stops", st.Ejected)
	}
	for i, s := range prev.Stops {
		if !slices.Contains(got.Stops, s) {
			t.Fatalf("previous stop %d at %v vanished without ejection", i, s)
		}
	}
}

// TestRepairErrors pins the validation surface.
func TestRepairErrors(t *testing.T) {
	nw := deploy(50, 150, 30, 3)
	prev := coldPlan(t, nw)
	if _, _, err := Repair(context.Background(), nw, prev, make([]int, nw.N()+1), Options{}); err == nil {
		t.Fatal("carried-length mismatch accepted")
	}
	bad := CarryPositional(prev, nw.N())
	bad[0] = len(prev.Stops)
	if _, _, err := Repair(context.Background(), nw, prev, bad, Options{}); err == nil {
		t.Fatal("out-of-range carried stop accepted")
	}
	shifted := &collector.TourPlan{Sink: geom.Point{X: -1, Y: -1}, Stops: prev.Stops, UploadAt: prev.UploadAt}
	if _, _, err := Repair(context.Background(), nw, shifted, CarryPositional(shifted, nw.N()), Options{}); err == nil {
		t.Fatal("sink mismatch accepted")
	}
	if _, _, err := (Delta{Removed: []int{nw.N()}}).Apply(nw, CarryPositional(prev, nw.N())); err == nil {
		t.Fatal("out-of-range removal accepted")
	}
	if _, _, err := (Delta{Moved: []Move{{Index: -1}}}).Apply(nw, CarryPositional(prev, nw.N())); err == nil {
		t.Fatal("out-of-range move accepted")
	}
}

// TestRepairWarmSpeedup: the point of the subsystem — after a <=1% delta
// at n=10k, warm repair must be far faster than a cold replan. The
// acceptance bar is 10x; the assertion keeps headroom for loaded CI.
func TestRepairWarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	nw := deploy(10_000, 2000, 30, 1)
	w := obs.StartWatch()
	prev := coldPlan(t, nw)
	coldNs := w.ElapsedNs()

	d := Perturb(nw, 0.01, 42)
	nw2, carried, err := d.Apply(nw, prev.UploadAt)
	if err != nil {
		t.Fatal(err)
	}
	warmNs := int64(1) << 62
	var warm *collector.TourPlan
	var st Stats
	for trial := 0; trial < 3; trial++ {
		w = obs.StartWatch()
		warm, st, err = Repair(context.Background(), nw2, prev, carried, Options{})
		if d := w.ElapsedNs(); d < warmNs {
			warmNs = d
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := check.Plan(nw2, warm, check.Options{}); err != nil {
		t.Fatal(err)
	}
	t.Logf("cold %v, warm %v (%.1fx), stats %+v",
		time.Duration(coldNs), time.Duration(warmNs), float64(coldNs)/float64(warmNs), st)
	if warmNs*5 > coldNs {
		t.Fatalf("warm repair %v is not >=5x faster than cold plan %v",
			time.Duration(warmNs), time.Duration(coldNs))
	}
}

// applyByMaps is Delta.Apply over per-node map lookups: the reference
// the merge walk is held to.
func applyByMaps(d Delta, prev *wsn.Network, prevUpload []int) ([]geom.Point, []int) {
	gone := map[int]bool{}
	for _, i := range d.Removed {
		gone[i] = true
	}
	moved := map[int]geom.Point{}
	for _, m := range d.Moved {
		moved[m.Index] = m.To
	}
	var positions []geom.Point
	var carried []int
	for i, node := range prev.Nodes {
		if gone[i] {
			continue
		}
		p := node.Pos
		if to, ok := moved[i]; ok {
			p = to
		}
		positions = append(positions, p)
		carried = append(carried, prevUpload[i])
	}
	for _, p := range d.Added {
		positions = append(positions, p)
		carried = append(carried, -1)
	}
	return positions, carried
}

// applyCases are the deltas the Apply tests run against an n=40 field:
// duplicate removals, an index both removed and moved, repeated moves
// of one index, additions, all of them at once, and a Perturb delta.
func applyCases(nw *wsn.Network) []struct {
	name string
	d    Delta
} {
	at := func(x float64) geom.Point { return geom.Pt(x, x) }
	return []struct {
		name string
		d    Delta
	}{
		{"empty", Delta{}},
		{"duplicate removals", Delta{Removed: []int{5, 3, 5, 39, 3, 0}}},
		{"removed and moved", Delta{Removed: []int{8, 2}, Moved: []Move{{2, at(1)}, {9, at(2)}, {8, at(3)}}}},
		{"repeated moves", Delta{Moved: []Move{{4, at(1)}, {1, at(2)}, {4, at(3)}, {1, at(4)}, {4, at(5)}}}},
		{"additions", Delta{Added: []geom.Point{at(11), at(12), at(11)}}},
		{"everything", Delta{
			Removed: []int{39, 0, 17, 17},
			Moved:   []Move{{17, at(6)}, {0, at(7)}, {38, at(8)}, {38, at(9)}, {12, at(10)}},
			Added:   []geom.Point{at(11), at(12)},
		}},
		{"perturb", Perturb(nw, 0.3, 5)},
	}
}

// TestDeltaApplyMatchesMapReference pins Apply's rules: removal wins over
// a move of the same index, the last move of an index wins, duplicate
// removals count once, and the delta's slices are left unsorted.
func TestDeltaApplyMatchesMapReference(t *testing.T) {
	nw := deploy(40, 200, 30, 9)
	upload := make([]int, nw.N())
	for i := range upload {
		upload[i] = i % 7
	}
	for _, c := range applyCases(nw) {
		removed, moved := slices.Clone(c.d.Removed), slices.Clone(c.d.Moved)
		got, carried, err := c.d.Apply(nw, upload)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		wantPos, wantCarried := applyByMaps(c.d, nw, upload)
		if !slices.Equal(got.Positions(), wantPos) || !slices.Equal(carried, wantCarried) {
			t.Fatalf("%s: Apply diverged from the map reference", c.name)
		}
		if got.Sink != nw.Sink || got.Range != nw.Range || got.Field != nw.Field {
			t.Fatalf("%s: Apply changed the sink, range or field", c.name)
		}
		if !slices.Equal(c.d.Removed, removed) || !slices.Equal(c.d.Moved, moved) {
			t.Fatalf("%s: Apply reordered the delta", c.name)
		}
	}
}

// TestApplyMatchesNew: the network Apply writes in one pass is the one
// wsn.New builds over the post-delta positions, node for node, with the
// same sink, range and field, and its lazy index answers like New's.
func TestApplyMatchesNew(t *testing.T) {
	nw := deploy(40, 200, 30, 9)
	upload := make([]int, nw.N())
	for _, c := range applyCases(nw) {
		got, _, err := c.d.Apply(nw, upload)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		wantPos, _ := applyByMaps(c.d, nw, upload)
		want := wsn.New(wantPos, nw.Sink, nw.Range, nw.Field)
		if !slices.Equal(got.Nodes, want.Nodes) {
			t.Fatalf("%s: Apply nodes %v, wsn.New %v", c.name, got.Nodes, want.Nodes)
		}
		if got.Sink != want.Sink || got.Range != want.Range || got.Field != want.Field {
			t.Fatalf("%s: Apply network %v, wsn.New %v", c.name, got, want)
		}
		if g, w := got.CoveredBy(nw.Sink), want.CoveredBy(nw.Sink); !slices.Equal(g, w) {
			t.Fatalf("%s: Apply network covers %v from the sink, wsn.New's %v", c.name, g, w)
		}
	}
	bad := &wsn.Network{Nodes: nw.Nodes, Sink: nw.Sink, Field: nw.Field}
	if _, _, err := (Delta{}).Apply(bad, upload); err == nil {
		t.Fatal("Apply accepted a network without a transmission range")
	}
}
