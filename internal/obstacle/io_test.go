package obstacle

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mobicol/internal/geom"
	"mobicol/internal/wsn"
)

func TestJSONRoundTrip(t *testing.T) {
	course, err := NewCourse(
		square(10, 10, 30, 30),
		Polygon{V: []geom.Point{geom.Pt(50, 50), geom.Pt(70, 50), geom.Pt(60, 70)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	var ff fileFormat
	for _, o := range course.Obstacles {
		var vs [][2]float64
		for _, v := range o.V {
			vs = append(vs, [2]float64{v.X, v.Y})
		}
		ff.Obstacles = append(ff.Obstacles, vs)
	}
	data, err := json.Marshal(ff)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Obstacles) != 2 {
		t.Fatalf("round trip kept %d obstacles", len(got.Obstacles))
	}
	for i, o := range course.Obstacles {
		for j, v := range o.V {
			if !got.Obstacles[i].V[j].Eq(v) {
				t.Fatalf("vertex (%d,%d) moved", i, j)
			}
		}
	}
}

func TestReadJSONRejectsBadPolygons(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Clockwise polygon fails validation.
	cw := `{"obstacles":[[[0,0],[0,10],[10,10],[10,0]]]}`
	if _, err := ReadJSON(strings.NewReader(cw)); err == nil {
		t.Fatal("clockwise polygon accepted")
	}
	// Two-vertex polygon fails validation.
	deg := `{"obstacles":[[[0,0],[1,1]]]}`
	if _, err := ReadJSON(strings.NewReader(deg)); err == nil {
		t.Fatal("degenerate polygon accepted")
	}
}

// TestReadJSONRejectsNaNArea pins a course whose vertices are finite but
// whose signed area overflows to NaN. NaN compares false against every
// bound, so before the area check this course loaded, and PlanTour on
// a 30-sensor field then failed late with "no path between" two points.
func TestReadJSONRejectsNaNArea(t *testing.T) {
	const nanArea = `{"obstacles":[[[1e308,0],[0,1e308],[1e308,1e308],[0,-1e308]]]}`
	course, err := ReadJSON(strings.NewReader(nanArea))
	if err == nil {
		nw := wsn.MustDeploy(wsn.Config{N: 30, FieldSide: 100, Range: 25, Seed: 1})
		_, perr := PlanTour(nw, course)
		t.Fatalf("NaN-area course accepted (PlanTour then says: %v)", perr)
	}
	if !strings.Contains(err.Error(), "not finite") {
		t.Fatalf("error %q does not name the non-finite area", err)
	}
}
