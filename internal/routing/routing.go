// Package routing implements multi-hop relay routing toward a static data
// sink — the conventional data-gathering baseline the paper's mobile
// scheme is measured against. Sensors forward packets along a shortest
// hop-count tree; each sensor's per-round load is one transmission per
// descendant (plus its own packet) and one reception per descendant.
package routing

import (
	"mobicol/internal/graph"
	"mobicol/internal/wsn"
)

// Plan is a static-sink routing plan.
type Plan struct {
	Net *wsn.Network
	// NextHop[i] is the sensor that i forwards to, or -1 when i uploads
	// directly to the sink, or -2 when i is disconnected from the sink.
	NextHop []int
	// Load[i] is the number of packets i transmits per round (its own
	// plus everything it relays). Disconnected sensors have load 0.
	Load []int
	// Hops[i] is i's hop count to the sink (-1 when disconnected).
	Hops []int
	// Disconnected lists sensors with no path to the sink; a static-sink
	// network simply never hears from them (the paper's motivation for
	// mobility in sparse fields).
	Disconnected []int
}

// DirectUpload is the NextHop value of sensors within sink range.
const DirectUpload = -1

// Unreachable is the NextHop value of sensors with no path to the sink.
const Unreachable = -2

// BuildPlan computes the shortest-path-tree routing plan for nw.
func BuildPlan(nw *wsn.Network) *Plan {
	n := nw.N()
	p := &Plan{
		Net:     nw,
		NextHop: make([]int, n),
		Load:    make([]int, n),
		Hops:    nw.HopsToSink(),
	}
	sinkAdj := make(map[int]bool)
	for _, s := range nw.SinkNeighbors() {
		sinkAdj[s] = true
	}
	r := graph.MultiBFS(nw.Graph(), nw.SinkNeighbors())
	for i := 0; i < n; i++ {
		switch {
		case sinkAdj[i]:
			p.NextHop[i] = DirectUpload
		case r.Dist[i] > 0:
			p.NextHop[i] = r.Parent[i]
		default:
			p.NextHop[i] = Unreachable
			p.Disconnected = append(p.Disconnected, i)
		}
	}
	// Load: count descendants by walking each sensor's path. O(N·depth),
	// fine at these scales and independent of the tree representation.
	for i := 0; i < n; i++ {
		if p.NextHop[i] == Unreachable {
			continue
		}
		for v := i; v != DirectUpload; v = p.NextHop[v] {
			p.Load[v]++
		}
	}
	return p
}

// Connected reports whether sensor i can reach the sink.
func (p *Plan) Connected(i int) bool { return p.NextHop[i] != Unreachable }

// CoverageFraction returns the fraction of sensors whose data reaches the
// static sink at all.
func (p *Plan) CoverageFraction() float64 {
	if p.Net.N() == 0 {
		return 1
	}
	return float64(p.Net.N()-len(p.Disconnected)) / float64(p.Net.N())
}
