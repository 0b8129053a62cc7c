// Package viz renders deployments, covers, and tours to SVG using only the
// standard library. cmd/mdgplan uses it so a planned tour can be inspected
// visually, mirroring the figures in the paper.
package viz

import (
	"fmt"
	"io"
	"strings"

	"mobicol/internal/collector"
	"mobicol/internal/geom"
	"mobicol/internal/wsn"
)

// The rendering scale and palette.
const (
	scale       = 3  // pixels per metre
	margin      = 10 // margin around the field, in metres
	sensorColor = "#4477aa"
	stopColor   = "#cc3311"
	tourColor   = "#cc3311"
	sinkColor   = "#228833"
)

// RenderTour writes an SVG of the network and (optionally nil) tour plan.
func RenderTour(w io.Writer, nw *wsn.Network, plan *collector.TourPlan) error {
	f := nw.Field.Expand(margin)
	px := func(p geom.Point) (float64, float64) {
		// SVG y grows downward; flip so the field reads like the paper's
		// figures.
		return (p.X - f.Min.X) * scale, (f.Max.Y - p.Y) * scale
	}
	var b strings.Builder
	wpx, hpx := f.Width()*scale, f.Height()*scale
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n", wpx, hpx, wpx, hpx)
	fmt.Fprintf(&b, `<rect width="%.0f" height="%.0f" fill="#ffffff"/>`+"\n", wpx, hpx)

	// Field border.
	x0, y0 := px(geom.Pt(nw.Field.Min.X, nw.Field.Max.Y))
	fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#bbbbbb"/>`+"\n",
		x0, y0, nw.Field.Width()*scale, nw.Field.Height()*scale)

	if plan != nil {
		// Coverage disks behind everything else.
		for _, s := range plan.Stops {
			cx, cy := px(s)
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s" fill-opacity="0.07" stroke="none"/>`+"\n",
				cx, cy, nw.Range*scale, stopColor)
		}
		// Tour polyline: sink -> stops -> sink.
		pts := append([]geom.Point{plan.Sink}, plan.Stops...)
		pts = append(pts, plan.Sink)
		var poly strings.Builder
		for i, p := range pts {
			cx, cy := px(p)
			if i > 0 {
				poly.WriteByte(' ')
			}
			fmt.Fprintf(&poly, "%.1f,%.1f", cx, cy)
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n", poly.String(), tourColor)
		// Upload assignments as faint spokes.
		for i := 0; i < min(len(plan.UploadAt), nw.N()); i++ {
			sIdx := plan.StopOf(i)
			if sIdx < 0 {
				continue
			}
			ax, ay := px(nw.Nodes[i].Pos)
			bx, by := px(plan.Stops[sIdx])
			fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#999999" stroke-width="0.4"/>`+"\n", ax, ay, bx, by)
		}
		for _, s := range plan.Stops {
			cx, cy := px(s)
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="6" height="6" fill="%s"/>`+"\n", cx-3, cy-3, stopColor)
		}
	}
	for _, node := range nw.Nodes {
		cx, cy := px(node.Pos)
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.2" fill="%s"/>`+"\n", cx, cy, sensorColor)
	}
	sx, sy := px(nw.Sink)
	fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="5" fill="%s" stroke="#000000"/>`+"\n", sx, sy, sinkColor)
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}
