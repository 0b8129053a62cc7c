package viz

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"mobicol/internal/collector"
	"mobicol/internal/geom"
	"mobicol/internal/shdgp"
	"mobicol/internal/wsn"
)

func TestRenderTourWellFormed(t *testing.T) {
	nw := wsn.MustDeploy(wsn.Config{N: 60, FieldSide: 150, Range: 25, Seed: 2})
	sol, err := shdgp.Plan(context.Background(), shdgp.NewProblem(nw), shdgp.DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderTour(&buf, nw, sol.Plan); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("output is not an SVG document")
	}
	if got := strings.Count(svg, "<circle"); got < nw.N()+1 { // sensors + sink
		t.Fatalf("only %d circles for %d sensors", got, nw.N())
	}
	if !strings.Contains(svg, "<polyline") {
		t.Fatal("tour polyline missing")
	}
	if strings.Count(svg, "<rect") < sol.Stops() {
		t.Fatal("stop markers missing")
	}
}

func TestRenderTourNilPlan(t *testing.T) {
	nw := wsn.MustDeploy(wsn.Config{N: 20, FieldSide: 100, Range: 25, Seed: 3})
	var buf bytes.Buffer
	if err := RenderTour(&buf, nw, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<circle") {
		t.Fatal("sensors not rendered without a plan")
	}
	if strings.Contains(buf.String(), "<polyline") {
		t.Fatal("polyline rendered without a plan")
	}
}

func TestRenderTourSkipsUnassignedSpokes(t *testing.T) {
	nw := wsn.MustDeploy(wsn.Config{N: 20, FieldSide: 100, Range: 25, Seed: 3})
	sol, err := shdgp.Plan(context.Background(), shdgp.NewProblem(nw), shdgp.DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	spokes := func() int {
		var buf bytes.Buffer
		if err := RenderTour(&buf, nw, sol.Plan); err != nil {
			t.Fatal(err)
		}
		return strings.Count(buf.String(), "<line")
	}
	all := spokes()
	sol.Plan.UploadAt[0] = -1
	if got := spokes(); got != all-1 {
		t.Fatalf("%d spokes with sensor 0 unassigned, want %d", got, all-1)
	}
}

// TestRenderTourOutOfRangeUploadStop: an UploadAt entry outside
// [0, len(Stops)) draws no spoke, and a plan with more entries than
// sensors draws none for the extra entries, instead of panicking.
func TestRenderTourOutOfRangeUploadStop(t *testing.T) {
	nw := wsn.New([]geom.Point{geom.Pt(10, 10), geom.Pt(20, 10)}, geom.Pt(0, 0), 30, geom.Square(50))
	plan := &collector.TourPlan{Sink: nw.Sink, Stops: []geom.Point{geom.Pt(20, 10)}, UploadAt: []int{1, 0, 0}}
	var buf bytes.Buffer
	if err := RenderTour(&buf, nw, plan); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "<line"); got != 1 {
		t.Fatalf("%d spokes, want 1 (sensor 1 only)", got)
	}
}
