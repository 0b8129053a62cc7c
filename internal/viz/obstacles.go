package viz

import (
	"fmt"
	"io"
	"strings"

	"mobicol/internal/geom"
	"mobicol/internal/obstacle"
	"mobicol/internal/wsn"
)

// RenderObstacleTour writes an SVG of the network, the obstacle course,
// and the driven waypoint polyline of an obstacle-aware tour.
func RenderObstacleTour(w io.Writer, nw *wsn.Network, course *obstacle.Course, tour *obstacle.Tour) error {
	f := nw.Field.Expand(margin)
	px := func(p geom.Point) (float64, float64) {
		return (p.X - f.Min.X) * scale, (f.Max.Y - p.Y) * scale
	}
	var b strings.Builder
	wpx, hpx := f.Width()*scale, f.Height()*scale
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n", wpx, hpx, wpx, hpx)
	fmt.Fprintf(&b, `<rect width="%.0f" height="%.0f" fill="#ffffff"/>`+"\n", wpx, hpx)
	// Obstacles first, as filled polygons.
	for _, poly := range course.Obstacles {
		var pts strings.Builder
		for i, v := range poly.V {
			x, y := px(v)
			if i > 0 {
				pts.WriteByte(' ')
			}
			fmt.Fprintf(&pts, "%.1f,%.1f", x, y)
		}
		fmt.Fprintf(&b, `<polygon points="%s" fill="#555555" fill-opacity="0.55" stroke="#222222"/>`+"\n", pts.String())
	}
	// Driven polyline.
	if tour != nil && len(tour.Waypoints) > 1 {
		var pts strings.Builder
		for i, p := range tour.Waypoints {
			x, y := px(p)
			if i > 0 {
				pts.WriteByte(' ')
			}
			fmt.Fprintf(&pts, "%.1f,%.1f", x, y)
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n", pts.String(), tourColor)
		for _, s := range tour.Stops {
			x, y := px(s)
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="6" height="6" fill="%s"/>`+"\n", x-3, y-3, stopColor)
		}
	}
	for _, node := range nw.Nodes {
		x, y := px(node.Pos)
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.2" fill="%s"/>`+"\n", x, y, sensorColor)
	}
	sx, sy := px(nw.Sink)
	fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="5" fill="%s" stroke="#000000"/>`+"\n", sx, sy, sinkColor)
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}
