package baselines

import (
	"fmt"
	"math"
	"testing"

	"mobicol/internal/geom"
	"mobicol/internal/wsn"
)

func TestPlanCLACoversAllSensors(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		nw := wsn.MustDeploy(wsn.Config{N: 150, FieldSide: 200, Range: 30, Seed: seed})
		plan, err := PlanCLA(nw)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if plan.Served() != nw.N() {
			t.Fatalf("seed %d: CLA serves %d of %d", seed, plan.Served(), nw.N())
		}
		// Single-hop property in CLA semantics: perpendicular distance to
		// the line is within range.
		for i := range nw.Nodes {
			if d := CLAUploadDistance(nw, plan, i); d > nw.Range+1e-9 {
				t.Fatalf("seed %d: sensor %d uploads over %.2fm", seed, i, d)
			}
		}
	}
}

func TestCLAStopsOnLines(t *testing.T) {
	nw := wsn.MustDeploy(wsn.Config{N: 80, FieldSide: 150, Range: 25, Seed: 3})
	plan, err := PlanCLA(nw)
	if err != nil {
		t.Fatal(err)
	}
	// Stops come in per-line groups with constant y.
	for i, s := range plan.Stops {
		onLine := false
		for y := nw.Field.Min.Y + nw.Range; y < nw.Field.Max.Y+nw.Range; y += 2 * nw.Range {
			if math.Abs(s.Y-math.Min(y, nw.Field.Max.Y)) < 1e-9 {
				onLine = true
				break
			}
		}
		if !onLine {
			t.Fatalf("stop %d at %v is not on a sweep line", i, s)
		}
	}
}

func TestCLATourLongerThanFieldWidthTimesLines(t *testing.T) {
	// With a dense uniform deployment, each occupied line spans nearly the
	// whole field, so the tour must be at least (#lines - small) * width.
	nw := wsn.MustDeploy(wsn.Config{N: 400, FieldSide: 200, Range: 25, Seed: 4})
	plan, err := PlanCLA(nw)
	if err != nil {
		t.Fatal(err)
	}
	lines := int(math.Ceil(200.0 / 50.0))
	if float64(plan.Length()) < float64(lines-1)*180 {
		t.Fatalf("CLA tour %.1f suspiciously short for %d lines", plan.Length(), lines)
	}
}

func TestCLAEmptyNetwork(t *testing.T) {
	nw := wsn.New(nil, geom.Pt(0, 0), 10, geom.Square(100))
	if _, err := PlanCLA(nw); err == nil {
		t.Fatal("empty network accepted")
	}
}

// avgHops returns the mean relay hop count over served sensors.
func avgHops(p *StraightLinePlan) float64 {
	sum, cnt := 0, 0
	for _, h := range p.Hops {
		if h >= 0 {
			sum += h
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return float64(sum) / float64(cnt)
}

// validateStraightLine checks forwarding-chain invariants: every served
// sensor's chain reaches the track in as many steps as its hop count.
func validateStraightLine(p *StraightLinePlan) error {
	n := p.Net.N()
	for i := 0; i < n; i++ {
		if p.NextHop[i] == -2 {
			continue
		}
		steps := 0
		for v := i; v != -1; v = p.NextHop[v] {
			if v == -2 || steps > n {
				return fmt.Errorf("baselines: bad forwarding chain from sensor %d", i)
			}
			steps++
		}
		if steps-1 != p.Hops[i] {
			return fmt.Errorf("baselines: sensor %d chain length %d != hops %d", i, steps-1, p.Hops[i])
		}
	}
	return nil
}

func TestStraightLineChainRelay(t *testing.T) {
	// Field 100x100, one track at y=50. Sensors: one on the track, a
	// chain reaching away from it, and one stranded far sensor.
	pts := []geom.Point{
		geom.Pt(50, 52), // adjacent (2 m from track, r=10)
		geom.Pt(50, 68), // two hops: via 2 then 0
		geom.Pt(50, 61), // 11 m from track: one hop via 0
		geom.Pt(95, 95), // stranded
	}
	nw := wsn.New(pts, geom.Pt(0, 0), 10, geom.Square(100))
	p, err := PlanStraightLine(nw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateStraightLine(p); err != nil {
		t.Fatal(err)
	}
	if p.Hops[0] != 0 {
		t.Fatalf("on-track sensor hops = %d", p.Hops[0])
	}
	if p.Hops[2] != 1 || p.Hops[1] != 2 {
		t.Fatalf("chain hops = %v", p.Hops)
	}
	if len(p.Stranded) != 1 || p.Stranded[0] != 3 {
		t.Fatalf("Stranded = %v", p.Stranded)
	}
	if got := p.CoverageFraction(); got != 0.75 {
		t.Fatalf("coverage = %v", got)
	}
}

func TestStraightLineLoads(t *testing.T) {
	pts := []geom.Point{geom.Pt(50, 52), geom.Pt(50, 61), geom.Pt(50, 70)}
	nw := wsn.New(pts, geom.Pt(0, 0), 10, geom.Square(100))
	p, err := PlanStraightLine(nw, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 2, 1}
	for i, w := range want {
		if p.Load[i] != w {
			t.Fatalf("Load = %v, want %v", p.Load, want)
		}
	}
}

func TestStraightLineTourLengthIndependentOfDeployment(t *testing.T) {
	a := wsn.MustDeploy(wsn.Config{N: 50, FieldSide: 200, Range: 30, Seed: 1})
	b := wsn.MustDeploy(wsn.Config{N: 500, FieldSide: 200, Range: 30, Seed: 2})
	pa, err := PlanStraightLine(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := PlanStraightLine(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(pa.TourLength()-pb.TourLength())) > 1e-9 {
		t.Fatalf("fixed-track tour varies with deployment: %v vs %v", pa.TourLength(), pb.TourLength())
	}
	if pa.TourLength() < 3*200 {
		t.Fatalf("3-track tour %.1f shorter than the tracks themselves", pa.TourLength())
	}
}

func TestStraightLineMoreTracksMoreCoverage(t *testing.T) {
	nw := wsn.MustDeploy(wsn.Config{N: 200, FieldSide: 400, Range: 25, Seed: 9})
	p1, err := PlanStraightLine(nw, 1)
	if err != nil {
		t.Fatal(err)
	}
	p5, err := PlanStraightLine(nw, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p5.CoverageFraction() < p1.CoverageFraction()-1e-9 {
		t.Fatalf("coverage dropped with more tracks: %v -> %v", p1.CoverageFraction(), p5.CoverageFraction())
	}
	if avgHops(p5) > avgHops(p1)+1e-9 {
		t.Fatalf("avg hops grew with more tracks: %v -> %v", avgHops(p1), avgHops(p5))
	}
}

func TestStraightLineAllStranded(t *testing.T) {
	// One sensor far from the single track through the middle.
	pts := []geom.Point{geom.Pt(5, 5)}
	nw := wsn.New(pts, geom.Pt(0, 0), 10, geom.Square(200))
	p, err := PlanStraightLine(nw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stranded) != 1 || p.CoverageFraction() != 0 {
		t.Fatalf("Stranded = %v, coverage %v", p.Stranded, p.CoverageFraction())
	}
	if err := validateStraightLine(p); err != nil {
		t.Fatal(err)
	}
}

func TestStraightLineRejectsBadArgs(t *testing.T) {
	nw := wsn.MustDeploy(wsn.Config{N: 10, FieldSide: 100, Range: 20, Seed: 1})
	if _, err := PlanStraightLine(nw, 0); err == nil {
		t.Fatal("zero tracks accepted")
	}
	empty := wsn.New(nil, geom.Pt(0, 0), 10, geom.Square(100))
	if _, err := PlanStraightLine(empty, 1); err == nil {
		t.Fatal("empty network accepted")
	}
}

func TestUploadDistanceWithinRangeForAdjacent(t *testing.T) {
	nw := wsn.MustDeploy(wsn.Config{N: 300, FieldSide: 200, Range: 30, Seed: 10})
	p, err := PlanStraightLine(nw, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nw.Nodes {
		if p.Hops[i] == 0 {
			if d := p.UploadDistance(i); d > nw.Range+1e-9 {
				t.Fatalf("adjacent sensor %d upload distance %.2f exceeds range", i, d)
			}
		}
	}
}
