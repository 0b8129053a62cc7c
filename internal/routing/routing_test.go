package routing

import (
	"fmt"
	"testing"

	"mobicol/internal/geom"
	"mobicol/internal/wsn"
)

// chainNet builds sink at origin with sensors in a line every 8 m, range 10.
func chainNet(n int) *wsn.Network {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(8*(i+1)), 0)
	}
	return wsn.New(pts, geom.Pt(0, 0), 10, geom.Square(500))
}

// validatePlan checks plan invariants: every connected sensor's
// forwarding chain terminates at the sink without cycles, in as many
// steps as its hop count.
func validatePlan(p *Plan) error {
	n := p.Net.N()
	for i := 0; i < n; i++ {
		if !p.Connected(i) {
			continue
		}
		steps := 0
		for v := i; v != DirectUpload; v = p.NextHop[v] {
			if v == Unreachable {
				return fmt.Errorf("routing: connected sensor %d routes into unreachable node", i)
			}
			steps++
			if steps > n {
				return fmt.Errorf("routing: forwarding cycle reachable from sensor %d", i)
			}
		}
		if steps != p.Hops[i] {
			return fmt.Errorf("routing: sensor %d path length %d != hop count %d", i, steps, p.Hops[i])
		}
	}
	return nil
}

func TestBuildPlanChain(t *testing.T) {
	p := BuildPlan(chainNet(4))
	if p.NextHop[0] != DirectUpload {
		t.Fatalf("NextHop[0] = %d", p.NextHop[0])
	}
	for i := 1; i < 4; i++ {
		if p.NextHop[i] != i-1 {
			t.Fatalf("NextHop[%d] = %d", i, p.NextHop[i])
		}
	}
	// Loads: node 0 relays everyone: 4; node 3 only itself: 1.
	want := []int{4, 3, 2, 1}
	for i, w := range want {
		if p.Load[i] != w {
			t.Fatalf("Load = %v, want %v", p.Load, want)
		}
	}
	if err := validatePlan(p); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnectedSensors(t *testing.T) {
	pts := []geom.Point{geom.Pt(8, 0), geom.Pt(400, 400)}
	nw := wsn.New(pts, geom.Pt(0, 0), 10, geom.Square(500))
	p := BuildPlan(nw)
	if p.Connected(1) {
		t.Fatal("far sensor reported connected")
	}
	if p.NextHop[1] != Unreachable || p.Load[1] != 0 {
		t.Fatal("unreachable bookkeeping wrong")
	}
	if len(p.Disconnected) != 1 || p.Disconnected[0] != 1 {
		t.Fatalf("Disconnected = %v", p.Disconnected)
	}
	if got := p.CoverageFraction(); got != 0.5 {
		t.Fatalf("CoverageFraction = %v", got)
	}
	if err := validatePlan(p); err != nil {
		t.Fatal(err)
	}
}

func TestPlanOnRandomDeployments(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		nw := wsn.MustDeploy(wsn.Config{N: 150, FieldSide: 200, Range: 30, Seed: seed})
		p := BuildPlan(nw)
		if err := validatePlan(p); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Conservation: total transmissions equals sum over connected
		// sensors of their hop counts (each packet transmits once per hop).
		got, wantTotal := 0, 0
		for i := 0; i < nw.N(); i++ {
			got += p.Load[i]
			if p.Connected(i) {
				wantTotal += p.Hops[i]
			}
		}
		if got != wantTotal {
			t.Fatalf("seed %d: total tx %d != sum of hops %d", seed, got, wantTotal)
		}
	}
}

func TestSinkAdjacentCarryTheLoad(t *testing.T) {
	nw := wsn.MustDeploy(wsn.Config{N: 300, FieldSide: 200, Range: 30, Seed: 5})
	p := BuildPlan(nw)
	maxLoad, sensor := 0, 0
	for i, l := range p.Load {
		if l > maxLoad {
			maxLoad, sensor = l, i
		}
	}
	if maxLoad < 2 {
		t.Skip("degenerate deployment")
	}
	if p.Hops[sensor] != 1 {
		t.Fatalf("hottest sensor at %d hops, expected sink-adjacent (1)", p.Hops[sensor])
	}
}

func TestEmptyNetwork(t *testing.T) {
	nw := wsn.New(nil, geom.Pt(0, 0), 10, geom.Square(10))
	p := BuildPlan(nw)
	if p.CoverageFraction() != 1 {
		t.Fatal("empty network coverage should be 1")
	}
	if err := validatePlan(p); err != nil {
		t.Fatal(err)
	}
}
