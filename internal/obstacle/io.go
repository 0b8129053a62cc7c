package obstacle

import (
	"encoding/json"
	"fmt"
	"io"

	"mobicol/internal/geom"
)

// fileFormat is the on-disk JSON schema: a list of polygons, each a list
// of [x, y] vertices in counter-clockwise order.
type fileFormat struct {
	Obstacles [][][2]float64 `json:"obstacles"`
}

// ReadJSON decodes a course and validates every polygon.
func ReadJSON(r io.Reader) (*Course, error) {
	var ff fileFormat
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("obstacle: decode course: %w", err)
	}
	polys := make([]Polygon, len(ff.Obstacles))
	for i, vs := range ff.Obstacles {
		polys[i].V = make([]geom.Point, len(vs))
		for j, v := range vs {
			polys[i].V[j] = geom.Pt(v[0], v[1])
		}
	}
	return NewCourse(polys...)
}
