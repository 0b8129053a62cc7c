package baselines

import (
	"fmt"
	"math"

	"mobicol/internal/geom"
	"mobicol/internal/graph"
	"mobicol/internal/wsn"
)

// StraightLinePlan models the data-mule baseline with uncontrolled
// trajectory: the collector shuttles along fixed horizontal tracks (the
// middle track through the field centre), and sensors out of range of any
// track relay packets over multiple hops toward the nearest track-adjacent
// sensor.
type StraightLinePlan struct {
	Net    *wsn.Network
	Tracks []geom.Segment
	// NextHop[i] is the relay target of sensor i, -1 when i is
	// track-adjacent (uploads directly as the collector passes), and -2
	// when i has no multi-hop path to any track-adjacent sensor.
	NextHop []int
	// Hops[i] is the relay hop count of sensor i's packets before the
	// final upload (0 for track-adjacent sensors, -1 for stranded ones).
	Hops []int
	// Load[i] is the packets sensor i transmits per round.
	Load []int
	// Stranded lists sensors whose data never reaches the collector.
	Stranded []int
}

// PlanStraightLine builds the plan with the given number of evenly spaced
// horizontal tracks (>= 1). With one track it runs through the field
// centre; with k tracks they split the field height evenly, mirroring the
// straight-track configurations in the paper's comparison.
func PlanStraightLine(nw *wsn.Network, tracks int) (*StraightLinePlan, error) {
	if tracks <= 0 {
		return nil, fmt.Errorf("baselines: need at least one track, got %d", tracks)
	}
	if nw.N() == 0 {
		return nil, fmt.Errorf("baselines: straight-line plan on empty network")
	}
	field := nw.Field
	p := &StraightLinePlan{Net: nw}
	for t := 0; t < tracks; t++ {
		y := field.Min.Y + field.Height()*(float64(t)+0.5)/float64(tracks)
		p.Tracks = append(p.Tracks, geom.Seg(geom.Pt(field.Min.X, y), geom.Pt(field.Max.X, y)))
	}
	n := nw.N()
	p.NextHop = make([]int, n)
	p.Hops = make([]int, n)
	p.Load = make([]int, n)

	// Track-adjacent sensors: within range of some track segment.
	var adjacent []int
	isAdjacent := make([]bool, n)
	for i, node := range nw.Nodes {
		for _, tr := range p.Tracks {
			if tr.Dist(node.Pos) <= nw.Range+geom.Eps {
				isAdjacent[i] = true
				adjacent = append(adjacent, i)
				break
			}
		}
	}
	if len(adjacent) == 0 {
		// Nothing uploads; everyone is stranded.
		for i := range p.NextHop {
			p.NextHop[i] = -2
			p.Hops[i] = -1
			p.Stranded = append(p.Stranded, i)
		}
		return p, nil
	}
	r := graph.MultiBFS(nw.Graph(), adjacent)
	for i := 0; i < n; i++ {
		switch {
		case isAdjacent[i]:
			p.NextHop[i] = -1
			p.Hops[i] = 0
		case r.Dist[i] > 0:
			p.NextHop[i] = r.Parent[i]
			p.Hops[i] = r.Dist[i]
		default:
			p.NextHop[i] = -2
			p.Hops[i] = -1
			p.Stranded = append(p.Stranded, i)
		}
	}
	for i := 0; i < n; i++ {
		if p.NextHop[i] == -2 {
			continue
		}
		for v := i; v != -1; v = p.NextHop[v] {
			p.Load[v]++
		}
	}
	return p, nil
}

// TourLength returns the fixed per-round driving distance: from the sink
// to the first track, along every track, between consecutive tracks along
// the field border, and back to the sink. The tracks are fixed
// infrastructure, so this length is independent of the deployment — the
// defining property (and weakness) of the scheme.
func (p *StraightLinePlan) TourLength() geom.Meters {
	total := 0.0
	cur := p.Net.Sink
	for i, tr := range p.Tracks {
		// Enter at the near end.
		a, b := tr.A, tr.B
		if cur.Dist(b) < cur.Dist(a) {
			a, b = b, a
		}
		total += cur.Dist(a) + a.Dist(b)
		cur = b
		_ = i
	}
	return geom.Meters(total + cur.Dist(p.Net.Sink))
}

// UploadDistance returns the single-hop upload distance of track-adjacent
// sensor i (distance to the nearest point of its nearest track).
func (p *StraightLinePlan) UploadDistance(i int) float64 {
	best := math.Inf(1)
	for _, tr := range p.Tracks {
		best = math.Min(best, tr.Dist(p.Net.Nodes[i].Pos))
	}
	return best
}

// CoverageFraction returns the fraction of sensors whose data reaches the
// collector.
func (p *StraightLinePlan) CoverageFraction() float64 {
	if p.Net.N() == 0 {
		return 1
	}
	return float64(p.Net.N()-len(p.Stranded)) / float64(p.Net.N())
}
