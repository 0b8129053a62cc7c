package obstacle

import (
	"bytes"
	"math"
	"testing"

	"mobicol/internal/geom"
)

// FuzzCourseRead feeds arbitrary bytes to the course decoder (the format
// mdgplan and wsngen read through -obstacles). Every input must yield
// either an error or a course whose polygons each have at least 3 finite
// vertices and a finite positive area; no input may panic. The committed
// corpus under testdata/fuzz/FuzzCourseRead holds valid courses, a
// clockwise polygon and a NaN-area polygon.
func FuzzCourseRead(f *testing.F) {
	f.Add([]byte(`{"obstacles":[]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		course, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs are fine; panics are the bug
		}
		for i, o := range course.Obstacles {
			if len(o.V) < 3 {
				t.Fatalf("obstacle %d accepted with %d vertices", i, len(o.V))
			}
			for j, v := range o.V {
				if math.IsNaN(v.X) || math.IsInf(v.X, 0) || math.IsNaN(v.Y) || math.IsInf(v.Y, 0) {
					t.Fatalf("obstacle %d vertex %d accepted at %v", i, j, v)
				}
			}
			if a := o.signedArea(); math.IsNaN(a) || math.IsInf(a, 0) || a <= 0 {
				t.Fatalf("obstacle %d accepted with area %v", i, a)
			}
		}
		// Exercise the queries a malformed course would break.
		_ = course.Inside(geom.Pt(0, 0))
		_ = course.Blocked(geom.Pt(0, 0), geom.Pt(100, 100))
	})
}
