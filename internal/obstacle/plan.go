package obstacle

import (
	"context"
	"fmt"

	"mobicol/internal/geom"
	"mobicol/internal/shdgp"
	"mobicol/internal/tsp"
	"mobicol/internal/wsn"
)

// Tour is an obstacle-aware gathering tour: the stop visiting order plus
// the physical waypoint polyline the collector drives (stops and detour
// corners interleaved).
type Tour struct {
	Sink geom.Point
	// Stops in visiting order (sink excluded).
	Stops []geom.Point
	// Waypoints is the full driven polyline: sink, detour corners and
	// stops, back to the sink.
	Waypoints []geom.Point
	// Length is the driven length (>= the Euclidean stop tour).
	Length float64
	// Euclidean is the same visiting order's length ignoring obstacles —
	// the detour baseline.
	Euclidean float64
	// UploadAt mirrors collector.TourPlan: sensor -> index into Stops.
	UploadAt []int
}

// DetourFactor returns Length / Euclidean (1 when nothing blocks).
func (t *Tour) DetourFactor() float64 {
	// Tour lengths are sums of distances, so <= 0 means exactly zero.
	if t.Euclidean <= 0 {
		return 1
	}
	return t.Length / t.Euclidean
}

// PlanTour plans a single-hop gathering tour on a field with obstacles:
// the SHDGP heuristic chooses and orders the stops (radio is unaffected
// by the obstacles), that order is improved under the obstacle-aware
// shortest-path metric, and the driven polyline threads each leg around
// the obstacles.
func PlanTour(nw *wsn.Network, course *Course) (*Tour, error) {
	for i, node := range nw.Nodes {
		if course.Inside(node.Pos) {
			return nil, fmt.Errorf("obstacle: sensor %d at %v is inside an obstacle", i, node.Pos)
		}
	}
	if course.Inside(nw.Sink) {
		return nil, fmt.Errorf("obstacle: the sink at %v is inside an obstacle", nw.Sink)
	}
	sol, err := shdgp.Plan(context.Background(), shdgp.NewProblem(nw), shdgp.DefaultPlannerOptions())
	if err != nil {
		return nil, err
	}
	// Points: 0 = sink, 1.. = stops in the plan's visit order, which the
	// matrix improver polishes under the obstacle-aware metric.
	pts := append([]geom.Point{nw.Sink}, sol.Plan.Stops...)
	m := course.Matrix(pts)
	order, err := tsp.ImproveMatrix(m)
	if err != nil {
		return nil, err
	}
	order.RotateTo(0)

	out := &Tour{Sink: nw.Sink, UploadAt: make([]int, nw.N())}
	// oldIdx -> position in the new stop order.
	newPos := make([]int, len(sol.Plan.Stops))
	for _, idx := range order[1:] {
		newPos[idx-1] = len(out.Stops)
		out.Stops = append(out.Stops, pts[idx])
	}
	for i, s := range sol.Plan.UploadAt {
		if s < 0 {
			out.UploadAt[i] = -1
		} else {
			out.UploadAt[i] = newPos[s]
		}
	}
	// Thread the polyline leg by leg.
	seq := append([]geom.Point{nw.Sink}, out.Stops...)
	seq = append(seq, nw.Sink)
	out.Waypoints = append(out.Waypoints, nw.Sink)
	for i := 1; i < len(seq); i++ {
		leg, l, ok := course.ShortestPath(seq[i-1], seq[i])
		if !ok {
			return nil, fmt.Errorf("obstacle: no path between %v and %v", seq[i-1], seq[i])
		}
		out.Length += l
		out.Euclidean += seq[i-1].Dist(seq[i])
		out.Waypoints = append(out.Waypoints, leg[1:]...)
	}
	return out, nil
}

// DeployAround generates a deployment whose sensors avoid the obstacles:
// nodes drawn inside any obstacle are resampled deterministically. The
// experiments use it so obstacle density varies while sensor count stays
// fixed.
func DeployAround(cfg wsn.Config, course *Course) (*wsn.Network, error) {
	base, err := wsn.Deploy(cfg)
	if err != nil {
		return nil, err
	}
	pts := base.Positions()
	// Resample blocked sensors by marching the seed; bounded attempts
	// keep this deterministic and total.
	for i, p := range pts {
		attempt := uint64(1)
		for course.Inside(p) && attempt < 1000 {
			sub, err := wsn.Deploy(wsn.Config{
				N: 1, FieldSide: cfg.FieldSide, Range: cfg.Range,
				Seed: cfg.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15 ^ attempt,
			})
			if err != nil {
				return nil, err
			}
			p = sub.Nodes[0].Pos
			attempt++
		}
		pts[i] = p
	}
	return wsn.New(pts, base.Sink, cfg.Range, base.Field), nil
}
