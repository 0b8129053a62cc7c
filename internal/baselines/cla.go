// Package baselines implements the comparison schemes the paper evaluates
// against:
//
//   - CLA, the covering-line approximation: the collector sweeps parallel
//     straight lines spaced so that every sensor is within range of some
//     line, uploading in a single hop as the collector passes.
//   - The straight-line data mule (after Jea et al.): the collector is
//     confined to fixed tracks; out-of-range sensors relay packets over
//     multiple hops toward track-adjacent sensors.
//   - The static sink: no mobility at all, pure multi-hop relay routing
//     (implemented in internal/routing; wrapped here for the harness).
//   - Visit-all TSP: the d = 0 extreme where the collector drives to
//     every sensor (implemented in internal/shdgp.PlanVisitAll).
package baselines

import (
	"fmt"
	"math"
	"slices"

	"mobicol/internal/collector"
	"mobicol/internal/geom"
	"mobicol/internal/wsn"
)

// PlanCLA builds the covering-line approximation tour. Horizontal sweep
// lines are placed so their spacing never exceeds 2·R (every sensor is
// within R of a line); each line is trimmed to the x-extent of the sensors
// it serves, lines with no sensors are skipped, and consecutive lines are
// joined serpentine-fashion. The tour starts and ends at the sink. Every
// sensor uploads in a single hop when the collector passes the nearest
// point of its line, so the upload stop recorded for sensor i is its
// projection onto the assigned line.
func PlanCLA(nw *wsn.Network) (*collector.TourPlan, error) {
	n := nw.N()
	if n == 0 {
		return nil, fmt.Errorf("baselines: CLA on empty network")
	}
	r := nw.Range
	field := nw.Field
	// Sweep lines sit every 2R starting R above the field bottom, with
	// the topmost clamped into the field: line k lies at lineY(k) for
	// 0 <= k < lines. Only the lines some sensor is nearest to are built,
	// so the plan costs O(n log n) however far the range is below the
	// field height. Line indices are float64 so that a huge line count
	// cannot overflow an int.
	step := 2 * r
	lines := math.Ceil((field.Max.Y - field.Min.Y) / step)
	lineY := func(k float64) float64 {
		return math.Min(field.Min.Y+r+k*step, field.Max.Y)
	}
	// Assign each sensor to the nearest line (ties to the lower line);
	// verify coverage. The nearest line is next to the one below the
	// sensor, or the clamped top line.
	lineOf := make([]float64, n)
	for i, node := range nw.Nodes {
		below := math.Floor((node.Pos.Y - field.Min.Y - r) / step)
		best, bd := -1.0, math.Inf(1)
		for _, k := range [4]float64{below - 1, below, below + 1, lines - 1} {
			if k < 0 || !(k < lines) {
				continue
			}
			if d := math.Abs(node.Pos.Y - lineY(k)); d < bd {
				best, bd = k, d
			}
		}
		if bd > r+geom.Eps {
			return nil, fmt.Errorf("baselines: CLA line spacing leaves sensor %d uncovered (%.2fm)", i, bd)
		}
		lineOf[i] = best
	}
	// Trim each occupied line to its sensors' x-extent, bottom-up.
	type segment struct {
		y, x0, x1 float64
	}
	occupied := slices.Clone(lineOf)
	slices.Sort(occupied)
	occupied = slices.Compact(occupied)
	segs := make([]segment, len(occupied))
	for li, k := range occupied {
		segs[li] = segment{y: lineY(k), x0: math.Inf(1), x1: math.Inf(-1)}
	}
	// uploadAt holds each sensor's segment until the stops are laid out.
	uploadAt := make([]int, n)
	for i, node := range nw.Nodes {
		uploadAt[i], _ = slices.BinarySearch(occupied, lineOf[i])
		s := &segs[uploadAt[i]]
		s.x0 = math.Min(s.x0, node.Pos.X)
		s.x1 = math.Max(s.x1, node.Pos.X)
	}

	// Serpentine: traverse lines bottom-up, alternating direction, with
	// each line's endpoints as tour stops. Line li's stops are
	// stops[first[li]:first[li+1]], one or two of them.
	var stops []geom.Point
	first := make([]int, len(segs)+1)
	leftToRight := true
	for li, s := range segs {
		a, b := geom.Pt(s.x0, s.y), geom.Pt(s.x1, s.y)
		if !leftToRight {
			a, b = b, a
		}
		first[li] = len(stops)
		stops = append(stops, a)
		if !a.Eq(b) {
			stops = append(stops, b)
		}
		leftToRight = !leftToRight
	}
	first[len(segs)] = len(stops)
	// Upload stops: each sensor uploads as the collector passes its
	// projection onto its line. Executable plans need a discrete stop, so
	// insert per-sensor projection stops only logically: assign the
	// sensor to the nearer endpoint stop of its line. The tour length is
	// unchanged (the projection lies on the driven segment), and the
	// single-hop property holds for the vertical component; Validate is
	// therefore called with the line-distance semantics by the caller.
	for i, node := range nw.Nodes {
		li := uploadAt[i]
		a := first[li]
		uploadAt[i] = a
		if first[li+1] == a+2 && node.Pos.Dist2(stops[a+1]) < node.Pos.Dist2(stops[a]) {
			uploadAt[i] = a + 1
		}
	}
	return &collector.TourPlan{Sink: nw.Sink, Stops: stops, UploadAt: uploadAt}, nil
}

// CLAUploadDistance returns the true single-hop upload distance of sensor
// i under CLA semantics: the perpendicular distance to its sweep line
// (the collector passes the sensor's projection). Energy accounting uses
// this rather than the endpoint-stop distance.
func CLAUploadDistance(nw *wsn.Network, plan *collector.TourPlan, i int) float64 {
	stop := plan.Stops[plan.UploadAt[i]]
	return math.Abs(nw.Nodes[i].Pos.Y - stop.Y)
}
