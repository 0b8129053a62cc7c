package tsp

import (
	"fmt"
	"math"

	"mobicol/internal/geom"
)

// HeldKarpMax is the largest instance HeldKarp accepts: the DP table holds
// n·2^n float64s, so 18 points cost ~38 MB — the practical ceiling.
const HeldKarpMax = 18

// HeldKarp solves the TSP exactly by Bellman–Held–Karp dynamic programming
// in O(n²·2ⁿ) time. It returns the optimal closed tour. Instances larger
// than HeldKarpMax return an error; Solve handles them heuristically.
func HeldKarp(pts []geom.Point) (Tour, error) {
	n := len(pts)
	if n > HeldKarpMax {
		return nil, fmt.Errorf("tsp: HeldKarp limited to %d points, got %d", HeldKarpMax, n)
	}
	if n <= 3 {
		return trivialTour(n), nil
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = pts[i].Dist(pts[j])
		}
	}
	// dp[mask][v]: shortest path visiting exactly the set mask (which must
	// contain 0 and v), starting at 0 and ending at v.
	size := 1 << uint(n)
	dp := make([][]float64, size)
	parent := make([][]int8, size)
	for m := range dp {
		dp[m] = make([]float64, n)
		parent[m] = make([]int8, n)
		for v := range dp[m] {
			dp[m][v] = math.Inf(1)
			parent[m][v] = -1
		}
	}
	dp[1][0] = 0
	for mask := 1; mask < size; mask++ {
		if mask&1 == 0 {
			continue // every partial path starts at 0
		}
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) == 0 || math.IsInf(dp[mask][v], 1) {
				continue
			}
			base := dp[mask][v]
			for w := 1; w < n; w++ {
				if mask&(1<<uint(w)) != 0 {
					continue
				}
				nm := mask | 1<<uint(w)
				if nd := base + d[v][w]; nd < dp[nm][w] {
					dp[nm][w] = nd
					parent[nm][w] = int8(v)
				}
			}
		}
	}
	full := size - 1
	bestV, best := -1, math.Inf(1)
	for v := 1; v < n; v++ {
		if c := dp[full][v] + d[v][0]; c < best {
			bestV, best = v, c
		}
	}
	// Reconstruct.
	tour := make(Tour, 0, n)
	mask, v := full, bestV
	for v != -1 {
		tour = append(tour, v)
		pv := parent[mask][v]
		mask &^= 1 << uint(v)
		v = int(pv)
	}
	// tour is reversed and ends at 0.
	for i, j := 0, len(tour)-1; i < j; i, j = i+1, j-1 {
		tour[i], tour[j] = tour[j], tour[i]
	}
	return tour, nil
}
