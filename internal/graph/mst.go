package graph

import "math"

// CompleteEuclideanMST computes the MST of the complete graph whose vertex
// weights are given by the dist function, in O(n²) time and O(n) memory —
// the dense Prim variant. This is what tour lower bounds use: building an
// explicit n² edge list for 500 stops would be wasteful.
func CompleteEuclideanMST(n int, dist func(i, j int) float64) (parent []int, total float64) {
	if n == 0 {
		return nil, 0
	}
	parent = make([]int, n)
	best := make([]float64, n)
	inTree := make([]bool, n)
	for i := range best {
		best[i] = math.Inf(1)
		parent[i] = -1
	}
	best[0] = 0
	for iter := 0; iter < n; iter++ {
		u, ud := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !inTree[v] && best[v] < ud {
				u, ud = v, best[v]
			}
		}
		if u < 0 {
			break
		}
		inTree[u] = true
		total += ud
		for v := 0; v < n; v++ {
			if !inTree[v] {
				if d := dist(u, v); d < best[v] {
					best[v] = d
					parent[v] = u
				}
			}
		}
	}
	return parent, total
}
