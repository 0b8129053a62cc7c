package viz

import (
	"bytes"
	"strings"
	"testing"

	"mobicol/internal/geom"
	"mobicol/internal/obstacle"
	"mobicol/internal/wsn"
)

func TestRenderObstacleTour(t *testing.T) {
	course, err := obstacle.NewCourse(
		obstacle.Rectangle(geom.NewRect(geom.Pt(60, 60), geom.Pt(90, 90))),
	)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := obstacle.DeployAround(wsn.Config{N: 60, FieldSide: 200, Range: 30, Seed: 5}, course)
	if err != nil {
		t.Fatal(err)
	}
	tour, err := obstacle.PlanTour(nw, course)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderObstacleTour(&buf, nw, course, tour); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	if !strings.Contains(svg, "<polygon") {
		t.Fatal("obstacle polygon missing")
	}
	if !strings.Contains(svg, "<polyline") {
		t.Fatal("waypoint polyline missing")
	}
	if strings.Count(svg, "<circle") < nw.N() {
		t.Fatal("sensors missing")
	}
}

func TestRenderObstacleTourNilTour(t *testing.T) {
	course, err := obstacle.NewCourse()
	if err != nil {
		t.Fatal(err)
	}
	nw := wsn.MustDeploy(wsn.Config{N: 10, FieldSide: 100, Range: 30, Seed: 1})
	var buf bytes.Buffer
	if err := RenderObstacleTour(&buf, nw, course, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<polyline") {
		t.Fatal("polyline rendered without a tour")
	}
}
