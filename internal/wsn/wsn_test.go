package wsn

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"mobicol/internal/geom"
	"mobicol/internal/graph"
	"mobicol/internal/rng"
)

func TestNewAndAccessors(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(100, 100)}
	nw := New(pts, geom.Pt(5, 5), 15, geom.Square(120))
	if nw.N() != 3 {
		t.Fatalf("N = %d", nw.N())
	}
	got := nw.Positions()
	for i := range pts {
		if !got[i].Eq(pts[i]) {
			t.Fatalf("Positions[%d] = %v", i, got[i])
		}
	}
}

func TestGraphIsUnitDisk(t *testing.T) {
	// 0-1 within range; 2 isolated.
	nw := New([]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(50, 50)}, geom.Pt(0, 0), 12, geom.Square(60))
	g := nw.Graph()
	if g.M() != 1 || graph.BFS(g, 0).Dist[1] != 1 || graph.BFS(g, 2).Dist[0] != -1 {
		t.Fatal("unit-disk edges wrong")
	}
}

func TestGraphMatchesBruteForce(t *testing.T) {
	nw := MustDeploy(Config{N: 150, FieldSide: 200, Range: 30, Seed: 7})
	g := nw.Graph()
	// j is one hop from i exactly when the two are within range.
	for i := 0; i < nw.N(); i++ {
		hops := graph.BFS(g, i).Dist
		for j := 0; j < nw.N(); j++ {
			if j == i {
				continue
			}
			inRange := nw.Nodes[i].Pos.Dist(nw.Nodes[j].Pos) <= nw.Range+geom.Eps
			if (hops[j] == 1) != inRange {
				t.Fatalf("edge (%d,%d): graph says %v, geometry says %v",
					i, j, hops[j] == 1, inRange)
			}
		}
	}
}

func TestCoveredBy(t *testing.T) {
	nw := New([]geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(30, 0)}, geom.Pt(0, 0), 10, geom.Square(40))
	got := nw.CoveredBy(geom.Pt(1, 0))
	if len(got) != 2 {
		t.Fatalf("CoveredBy = %v", got)
	}
}

func TestDeployDeterminism(t *testing.T) {
	cfg := Config{N: 50, FieldSide: 100, Range: 20, Seed: 3}
	a, b := MustDeploy(cfg), MustDeploy(cfg)
	for i := range a.Nodes {
		if !a.Nodes[i].Pos.Eq(b.Nodes[i].Pos) {
			t.Fatalf("deployment not deterministic at node %d", i)
		}
	}
	cfg.Seed = 4
	c := MustDeploy(cfg)
	same := 0
	for i := range a.Nodes {
		if a.Nodes[i].Pos.Eq(c.Nodes[i].Pos) {
			same++
		}
	}
	if same == len(a.Nodes) {
		t.Fatal("different seeds produced identical deployment")
	}
}

func TestDeployAllPlacementsInField(t *testing.T) {
	for _, p := range []Placement{Uniform, GridJitter, Clustered, Ring, Corridor} {
		nw := MustDeploy(Config{N: 120, FieldSide: 150, Range: 25, Placement: p, Seed: 9})
		if nw.N() != 120 {
			t.Fatalf("%v: N = %d", p, nw.N())
		}
		for i, n := range nw.Nodes {
			if !nw.Field.Clamp(n.Pos).Eq(n.Pos) {
				t.Fatalf("%v: node %d at %v outside field", p, i, n.Pos)
			}
		}
	}
}

func TestSinkPlacement(t *testing.T) {
	centre := MustDeploy(Config{N: 10, FieldSide: 100, Range: 20, Seed: 1})
	if !centre.Sink.Eq(geom.Pt(50, 50)) {
		t.Fatalf("default sink = %v, want centre", centre.Sink)
	}
	corner := MustDeploy(Config{N: 10, FieldSide: 100, Range: 20, Seed: 1, SinkAtCorner: true})
	if !corner.Sink.Eq(geom.Pt(0, 0)) {
		t.Fatalf("corner sink = %v", corner.Sink)
	}
}

func TestHopsToSink(t *testing.T) {
	// Chain: sink at origin, sensors at 8, 16, 24 with range 10.
	pts := []geom.Point{geom.Pt(8, 0), geom.Pt(16, 0), geom.Pt(24, 0), geom.Pt(90, 90)}
	nw := New(pts, geom.Pt(0, 0), 10, geom.Square(100))
	hops := nw.HopsToSink()
	want := []int{1, 2, 3, -1}
	for i, w := range want {
		if hops[i] != w {
			t.Fatalf("HopsToSink = %v, want %v", hops, want)
		}
	}
}

func TestHopsToSinkNoNeighbors(t *testing.T) {
	nw := New([]geom.Point{geom.Pt(90, 90)}, geom.Pt(0, 0), 10, geom.Square(100))
	if hops := nw.HopsToSink(); hops[0] != -1 {
		t.Fatalf("isolated network hops = %v", hops)
	}
}

func TestComponentsClusteredLikelyDisconnected(t *testing.T) {
	// A sparse clustered deployment with a short range is essentially
	// guaranteed to be disconnected; this exercises the multi-component
	// path that mobile collection is designed for.
	nw := MustDeploy(Config{N: 60, FieldSide: 500, Range: 20, Placement: Clustered, Clusters: 4, Seed: 11})
	comps := nw.Components()
	total := 0
	for _, c := range comps {
		total += len(c)
	}
	if total != nw.N() {
		t.Fatalf("components cover %d of %d nodes", total, nw.N())
	}
	if len(comps) < 2 {
		t.Skip("rare draw: clustered deployment happened to be connected")
	}
}

func TestAvgDegreeScalesWithDensity(t *testing.T) {
	sparse := MustDeploy(Config{N: 100, FieldSide: 400, Range: 25, Seed: 5})
	dense := MustDeploy(Config{N: 400, FieldSide: 200, Range: 25, Seed: 5})
	if sparse.AvgDegree() >= dense.AvgDegree() {
		t.Fatalf("sparse degree %v >= dense degree %v", sparse.AvgDegree(), dense.AvgDegree())
	}
	// Expected degree in a uniform field ~ N * pi R^2 / L^2 (ignoring edges).
	expect := float64(dense.N()) * math.Pi * 625 / 40000
	if math.Abs(dense.AvgDegree()-expect) > 0.5*expect {
		t.Fatalf("dense degree %v far from analytic %v", dense.AvgDegree(), expect)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	nw := MustDeploy(Config{N: 40, FieldSide: 120, Range: 22, Placement: Clustered, Seed: 13})
	var buf bytes.Buffer
	if err := nw.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != nw.N() || got.Range != nw.Range || !got.Sink.Eq(nw.Sink) {
		t.Fatal("round trip lost metadata")
	}
	for i := range nw.Nodes {
		if !got.Nodes[i].Pos.Eq(nw.Nodes[i].Pos) {
			t.Fatalf("round trip moved node %d", i)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{"sensors":[],"sink":[0,0],"range":0,"field":[0,0,1,1]}`)); err == nil {
		t.Fatal("zero range accepted")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{"sensors":[[0,0],[1e300,1e300]],"sink":[0,0],"range":30,"field":[0,0,1e300,1e300]}`)); err == nil {
		t.Fatal("network whose squared extent overflows accepted")
	}
}

// TestValidateRejectsNonFinite: a NaN or infinite coordinate fails
// Validate wherever it sits (the first, a middle or the last sensor, the
// sink or a field corner), and so does a NaN or infinite range; the same
// network with every value finite passes.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	build := func() *Network {
		return New([]geom.Point{geom.Pt(1, 2), geom.Pt(50, 60), geom.Pt(99, 3)}, geom.Pt(50, 50), 30, geom.Square(100))
	}
	if err := build().Validate(); err != nil {
		t.Fatalf("finite network rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(nw *Network)
	}{
		{"first sensor x NaN", func(nw *Network) { nw.Nodes[0].Pos.X = nan }},
		{"middle sensor y NaN", func(nw *Network) { nw.Nodes[1].Pos.Y = nan }},
		{"last sensor x +Inf", func(nw *Network) { nw.Nodes[2].Pos.X = inf }},
		{"first sensor y -Inf", func(nw *Network) { nw.Nodes[0].Pos.Y = -inf }},
		{"middle sensor x -Inf", func(nw *Network) { nw.Nodes[1].Pos.X = -inf }},
		{"sink x NaN", func(nw *Network) { nw.Sink.X = nan }},
		{"sink y +Inf", func(nw *Network) { nw.Sink.Y = inf }},
		{"sink x -Inf", func(nw *Network) { nw.Sink.X = -inf }},
		{"field min NaN", func(nw *Network) { nw.Field.Min.Y = nan }},
		{"field max +Inf", func(nw *Network) { nw.Field.Max.X = inf }},
		{"field min -Inf", func(nw *Network) { nw.Field.Min.X = -inf }},
		{"range NaN", func(nw *Network) { nw.Range = nan }},
		{"range +Inf", func(nw *Network) { nw.Range = inf }},
	} {
		nw := build()
		c.edit(nw)
		if err := nw.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestDeployPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{N: -1, FieldSide: 10, Range: 1},
		{N: 5, FieldSide: 0, Range: 1},
		{N: 5, FieldSide: 10, Range: 0},
		{N: 5, FieldSide: math.NaN(), Range: 1},
		{N: 5, FieldSide: 10, Range: math.NaN()},
		{N: 5, FieldSide: 1e300, Range: 30},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v did not panic", cfg)
				}
			}()
			MustDeploy(cfg)
		}()
	}
}

// Property: every sensor covered by a point p is within Range of p.
func TestQuickCoveredByWithinRange(t *testing.T) {
	nw := MustDeploy(Config{N: 200, FieldSide: 200, Range: 30, Seed: 17})
	s := rng.New(18)
	f := func() bool {
		p := geom.Pt(s.Uniform(0, 200), s.Uniform(0, 200))
		for _, i := range nw.CoveredBy(p) {
			if nw.Nodes[i].Pos.Dist(p) > nw.Range+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDeployAndGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nw := MustDeploy(Config{N: 500, FieldSide: 300, Range: 30, Seed: uint64(i)})
		nw.Graph()
	}
}

func TestPlacementAndNetworkStrings(t *testing.T) {
	for i, want := range []string{"uniform", "grid-jitter", "clustered", "ring", "corridor"} {
		if got := Placement(i).String(); got != want {
			t.Fatalf("Placement(%d).String() = %q, want %q", i, got, want)
		}
	}
	if got := Placement(99).String(); got != "Placement(99)" {
		t.Fatalf("unknown placement String() = %q", got)
	}
	nw := New([]geom.Point{geom.Pt(1, 1)}, geom.Pt(50, 50), 12.5, geom.Square(100))
	if got, want := nw.String(), "wsn.Network{N=1, R=12.5m, field=100x100m, sink=(50.00, 50.00)}"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if got := New(nil, geom.Pt(0, 0), 10, geom.Square(10)).AvgDegree(); got != 0 {
		t.Fatalf("empty network AvgDegree = %v, want 0", got)
	}
}
