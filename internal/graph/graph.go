// Package graph provides the weighted-graph substrate for the planners:
// adjacency-list graphs, breadth-first search, the dense minimum spanning
// tree of a complete metric graph, union–find, connected components,
// rooted-tree preorder walks and Euler circuits. Vertices are dense
// integers [0, N), which maps directly onto sensor IDs.
package graph

import "fmt"

// Edge is a weighted edge between vertices U and V.
type Edge struct {
	U, V int
	W    float64
}

// Graph is an undirected weighted graph in adjacency-list form.
type Graph struct {
	n   int
	adj [][]Arc
	m   int
}

// Arc is one direction of an edge as stored in an adjacency list.
type Arc struct {
	To int
	W  float64
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		//mdglint:ignore nopanic documented precondition on a programmer-supplied size, like make with a negative length
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]Arc, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge (u, v) with weight w. Self-loops are
// rejected; parallel edges are permitted (the algorithms tolerate them).
func (g *Graph) AddEdge(u, v int, w float64) {
	if u == v {
		//mdglint:ignore nopanic self-loops are construction bugs in this codebase's geometric graphs, not data conditions
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	g.checkVertex(u)
	g.checkVertex(v)
	g.adj[u] = append(g.adj[u], Arc{v, w})
	g.adj[v] = append(g.adj[v], Arc{u, w})
	g.m++
}

func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= g.n {
		//mdglint:ignore nopanic bounds check mirroring slice-index semantics
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// Neighbors returns the adjacency list of v. Callers must not mutate it.
func (g *Graph) Neighbors(v int) []Arc {
	g.checkVertex(v)
	return g.adj[v]
}

// Degree returns the number of incident edge endpoints at v.
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return len(g.adj[v])
}

// Edges returns every undirected edge once (u < v for parallel-free
// graphs; parallel edges appear with multiplicity).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, a := range g.adj[u] {
			if u < a.To {
				out = append(out, Edge{u, a.To, a.W})
			}
		}
	}
	return out
}

// HasEdge reports whether at least one edge joins u and v.
func (g *Graph) HasEdge(u, v int) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	// Scan the shorter list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, a := range g.adj[u] {
		if a.To == v {
			return true
		}
	}
	return false
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	sum := 0.0
	for u := 0; u < g.n; u++ {
		for _, a := range g.adj[u] {
			if u < a.To {
				sum += a.W
			}
		}
	}
	return sum
}
