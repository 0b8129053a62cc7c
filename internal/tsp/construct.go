package tsp

import (
	"cmp"
	"math"
	"slices"

	"mobicol/internal/geom"
	"mobicol/internal/graph"
)

// NearestNeighbor builds a tour by repeatedly travelling to the closest
// unvisited point, starting from start, ties toward the lower index. This
// is the construction the paper's simulations use for the final tour over
// polling points. Each step is a plain scan: its callers (the exact
// solver's incumbent, the nearest-neighbour ablation) tour a few dozen
// points.
func NearestNeighbor(pts []geom.Point, start int) Tour {
	n := len(pts)
	if n <= 2 {
		return trivialTour(n)
	}
	visited := make([]bool, n)
	tour := make(Tour, 0, n)
	cur := start
	for {
		visited[cur] = true
		tour = append(tour, cur)
		if len(tour) == n {
			return tour
		}
		next, bestD2 := -1, math.Inf(1)
		for i, p := range pts {
			if d2 := p.Dist2(pts[cur]); d2 < bestD2 && !visited[i] {
				next, bestD2 = i, d2
			}
		}
		cur = next
	}
}

// greedyEdge builds a tour by adding the shortest edges that keep degree
// <= 2 and avoid premature subtours (the "greedy matching" construction;
// typically a few percent shorter than nearest neighbour). The candidate
// edges are each point's k nearest neighbours, neigh, built over the
// grid idx: O(nk) edges instead of all O(n²) pairs, and almost every edge
// the all-pairs rule would pick connects near neighbours; the local
// searches erase the rest of the gap. Solve builds neigh and idx once for
// the construction and the local searches. The candidate pass generally
// leaves a forest of path fragments (a point whose k nearest are all full
// keeps degree < 2), so a second pass links fragment endpoints
// nearest-first through the grid, then closes the cycle.
func greedyEdge(pts []geom.Point, neigh [][]int, idx *geom.GridIndex) Tour {
	n := len(pts)
	type edge struct {
		u, v int32
		w    float64
	}
	edges := make([]edge, 0, n*neighborK)
	for u, list := range neigh {
		for _, v := range list {
			// Normalise so both directions of a mutual pair collide; the
			// duplicate is skipped by the degree/component checks.
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			edges = append(edges, edge{int32(a), int32(b), pts[a].Dist2(pts[b])})
		}
	}
	// Ties sorted by (w, u, v) keep the edge order — and thus the tour —
	// independent of neighbour-list assembly order.
	slices.SortFunc(edges, func(a, b edge) int {
		if c := cmp.Compare(a.w, b.w); c != 0 {
			return c
		}
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	deg := make([]int, n)
	uf := graph.NewUnionFind(n)
	adj := make([][2]int, n)
	for i := range adj {
		adj[i] = [2]int{-1, -1}
	}
	added := 0
	link := func(u, v int) {
		uf.Union(u, v)
		adj[u][deg[u]] = v
		adj[v][deg[v]] = u
		deg[u]++
		deg[v]++
		added++
	}
	for _, e := range edges {
		if added == n-1 {
			break
		}
		u, v := int(e.u), int(e.v)
		if deg[u] >= 2 || deg[v] >= 2 || uf.Connected(u, v) {
			continue
		}
		link(u, v)
	}
	// Link the remaining fragments: for the lowest-index endpoint, attach
	// the nearest endpoint of another fragment, until one path remains.
	scan := 0
	for added < n-1 {
		u := -1
		for i := scan; i < n; i++ {
			if deg[i] < 2 {
				u, scan = i, i
				break
			}
		}
		v := idx.Nearest(pts[u], func(j int) bool {
			return j == u || deg[j] >= 2 || uf.Connected(u, j)
		})
		link(u, v)
	}
	// Close the Hamiltonian path into a cycle.
	a, b := -1, -1
	for i := 0; i < n; i++ {
		if deg[i] < 2 {
			if a < 0 {
				a = i
			} else {
				b = i
			}
		}
	}
	link(a, b)
	tour := make(Tour, 0, n)
	prev, cur := -1, 0
	for len(tour) < n {
		tour = append(tour, cur)
		next := adj[cur][0]
		if next == prev {
			next = adj[cur][1]
		}
		prev, cur = cur, next
	}
	return tour
}

// DoubleTree builds the classic MST 2-approximation: compute a minimum
// spanning tree, walk it in preorder, and shortcut repeated vertices. The
// result is guaranteed to be at most twice the optimal tour length in any
// metric space.
func DoubleTree(pts []geom.Point) Tour {
	n := len(pts)
	if n <= 3 {
		return trivialTour(n)
	}
	parent, _ := graph.CompleteEuclideanMST(n, func(i, j int) float64 { return pts[i].Dist(pts[j]) })
	tree := graph.NewTreeFromParents(0, parent)
	return Tour(tree.Preorder())
}
