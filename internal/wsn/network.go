// Package wsn models the wireless sensor network of the paper: N sensors
// scattered over an L×L field with a static data sink, a common
// transmission range, and unit-disk-graph connectivity. It provides
// deployment generators, topology construction, and per-network metrics.
package wsn

import (
	"fmt"
	"math"
	"sync"

	"mobicol/internal/geom"
	"mobicol/internal/graph"
)

// Node is one sensor. Its index in Network.Nodes is its identity.
type Node struct {
	Pos geom.Point
}

// Network is a deployed sensor field. Build one with Deploy (random
// placements) or New (explicit positions), then call Topology-dependent
// accessors freely: the unit-disk graph is constructed lazily and cached.
type Network struct {
	Nodes []Node
	Sink  geom.Point // static data sink (tour start/end)
	Range float64    // transmission range R_s in metres
	Field geom.Rect  // deployment area

	// Lazy caches. Scenarios are shared across concurrent planning
	// requests, so first-use construction is serialized: without the
	// Once guards two planners racing on a cold network would both
	// build and publish unsynchronized.
	gOnce   sync.Once
	g       *graph.Graph // lazy unit-disk graph
	idxOnce sync.Once
	index   *geom.GridIndex // lazy spatial index over node positions
}

// New builds a network from explicit sensor positions.
func New(positions []geom.Point, sink geom.Point, transmissionRange float64, field geom.Rect) *Network {
	if transmissionRange <= 0 {
		//mdglint:ignore nopanic documented precondition on a hand-built network; Deploy validates user configs and returns errors
		panic("wsn: non-positive transmission range")
	}
	nodes := make([]Node, len(positions))
	for i, p := range positions {
		nodes[i] = Node{Pos: p}
	}
	return &Network{Nodes: nodes, Sink: sink, Range: transmissionRange, Field: field}
}

// Validate rejects a network whose squared extent is not finite. The
// planners compare squared distances between any two of its points
// (sensors, sink, field corners) and against the squared range; past
// about 1e154 m these overflow to +Inf and the comparisons stop meaning
// anything. A NaN or infinite coordinate fails too. Deploy and ReadJSON
// call it, and so does the engine seam on every plan, for networks built
// with New.
func (nw *Network) Validate() error {
	f, s := nw.Field, nw.Sink
	minX, minY := min(f.Min.X, f.Max.X, s.X), min(f.Min.Y, f.Max.Y, s.Y)
	maxX, maxY := max(f.Min.X, f.Max.X, s.X), max(f.Min.Y, f.Max.Y, s.Y)
	// Plain compares skip a NaN coordinate, so nonFinite sums 0·x over
	// the sensors: 0·NaN and 0·±Inf are NaN, every finite x adds 0.
	var nonFinite float64
	for i := range nw.Nodes {
		p := nw.Nodes[i].Pos
		if p.X < minX {
			minX = p.X
		} else if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		} else if p.Y > maxY {
			maxY = p.Y
		}
		nonFinite += p.X*0 + p.Y*0
	}
	if math.IsNaN(nonFinite) {
		return fmt.Errorf("wsn: a sensor position is not finite")
	}
	dx, dy := maxX-minX, maxY-minY
	if d2 := dx*dx + dy*dy + nw.Range*nw.Range; math.IsInf(d2, 0) || math.IsNaN(d2) {
		return fmt.Errorf("wsn: network extent %g x %g m with range %g m overflows squared distances", dx, dy, nw.Range)
	}
	return nil
}

// N returns the number of sensors.
func (nw *Network) N() int { return len(nw.Nodes) }

// Positions returns the sensor positions in index order as a fresh slice.
//
//mdglint:allow-alloc(the copy is the result; a planner takes one per plan)
func (nw *Network) Positions() []geom.Point {
	out := make([]geom.Point, len(nw.Nodes))
	for i, n := range nw.Nodes {
		out[i] = n.Pos
	}
	return out
}

// ensureIndex returns the spatial index over node positions, building it
// on first use.
//
//mdglint:allow-mut(idempotent lazy cache: the only write is the sync.Once-guarded publication of an index derived from immutable fields)
func (nw *Network) ensureIndex() *geom.GridIndex {
	nw.idxOnce.Do(func() {
		nw.index = geom.NewGridIndex(nw.Positions(), nw.Range)
	})
	return nw.index
}

// Graph returns the unit-disk connectivity graph: vertices are sensors and
// an edge joins every pair within transmission range. Edge weights are the
// Euclidean distances; hop-count algorithms (BFS) ignore weights.
//
//mdglint:allow-mut(idempotent lazy cache: the only write is the sync.Once-guarded publication of the unit-disk graph derived from immutable fields)
func (nw *Network) Graph() *graph.Graph {
	nw.gOnce.Do(func() {
		nw.g = nw.buildGraph()
	})
	return nw.g
}

func (nw *Network) buildGraph() *graph.Graph {
	g := graph.New(nw.N())
	idx := nw.ensureIndex()
	buf := make([]int, 0, 32)
	for i, n := range nw.Nodes {
		buf = idx.Within(n.Pos, nw.Range, buf[:0])
		for _, j := range buf {
			if j > i { // add each pair once
				g.AddEdge(i, j, n.Pos.Dist(nw.Nodes[j].Pos))
			}
		}
	}
	return g
}

// CoveredBy returns the indices of the sensors within transmission range
// of point p — the sensors that could upload to a collector parked at p
// in a single hop.
func (nw *Network) CoveredBy(p geom.Point) []int {
	return nw.ensureIndex().Within(p, nw.Range, nil)
}

// SinkNeighbors returns the sensors within transmission range of the sink.
func (nw *Network) SinkNeighbors() []int { return nw.CoveredBy(nw.Sink) }

// Components returns the connected components of the unit-disk graph.
func (nw *Network) Components() [][]int {
	comps, _ := graph.Components(nw.Graph())
	return comps
}

// AvgDegree returns the mean number of neighbours per sensor.
func (nw *Network) AvgDegree() float64 {
	if nw.N() == 0 {
		return 0
	}
	return 2 * float64(nw.Graph().M()) / float64(nw.N())
}

// HopsToSink returns per-sensor minimum hop counts to the sink, treating
// the sink as directly reachable by its in-range sensors. Sensors with no
// multi-hop path to the sink have hop count -1; mobile collection still
// serves them, which is one of the paper's selling points.
func (nw *Network) HopsToSink() []int {
	srcs := nw.SinkNeighbors()
	hops := make([]int, nw.N())
	if len(srcs) == 0 {
		for i := range hops {
			hops[i] = -1
		}
		return hops
	}
	r := graph.MultiBFS(nw.Graph(), srcs)
	for i := range hops {
		if r.Dist[i] < 0 {
			hops[i] = -1
		} else {
			hops[i] = r.Dist[i] + 1 // +1 for the final hop into the sink
		}
	}
	return hops
}

// String summarises the network.
func (nw *Network) String() string {
	return fmt.Sprintf("wsn.Network{N=%d, R=%.1fm, field=%.0fx%.0fm, sink=%v}",
		nw.N(), nw.Range, nw.Field.Width(), nw.Field.Height(), nw.Sink)
}
