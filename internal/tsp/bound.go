package tsp

import (
	"mobicol/internal/geom"
	"mobicol/internal/graph"
)

// MSTLowerBound returns the weight of the minimum spanning tree over pts,
// a classic lower bound on the optimal closed tour: deleting any tour edge
// yields a spanning tree, so OPT >= MST.
func MSTLowerBound(pts []geom.Point) geom.Meters {
	if len(pts) < 2 {
		return 0
	}
	_, w := graph.CompleteEuclideanMST(len(pts), func(i, j int) float64 { return pts[i].Dist(pts[j]) })
	return geom.Meters(w)
}
