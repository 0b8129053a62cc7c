package tsp

import (
	"fmt"
	"math"
	"math/bits"

	"mobicol/internal/geom"
)

// HeldKarpMax is the largest instance HeldKarp accepts: the DP table holds
// n·2^(n-1) float64s and as many int8s, so 18 points cost ~21 MB — the
// practical ceiling.
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
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d[i*n+j] = pts[i].Dist(pts[j])
		}
	}
	// Every partial path starts at 0, so the table covers only the masks
	// that contain it: dp[m*n+v] is the shortest path from 0 through
	// exactly the set mask = m<<1|1, ending at v, and parent[m*n+v] the
	// point before v on it (-1 at the start). The relaxation runs in
	// ascending mask, then v, then w order with a strict <, so a tie
	// keeps the first path found.
	half := 1 << uint(n-1)
	dp := make([]float64, half*n)
	for k := range dp {
		dp[k] = math.Inf(1)
	}
	parent := make([]int8, half*n)
	dp[0], parent[0] = 0, -1
	for m := 0; m < half; m++ {
		// The set bits of in are the path's points (0 and m's), those of
		// out the points it can extend to; both are walked ascending.
		in, out := uint(m)<<1|1, uint(half-1-m)<<1
		for vs := in; vs != 0; vs &= vs - 1 {
			v := bits.TrailingZeros(vs)
			base := dp[m*n+v]
			if math.IsInf(base, 1) {
				continue
			}
			dv := d[v*n : v*n+n]
			for ws := out; ws != 0; ws &= ws - 1 {
				w := bits.TrailingZeros(ws)
				k := (m|1<<uint(w-1))*n + w
				if nd := base + dv[w]; nd < dp[k] {
					dp[k] = nd
					parent[k] = int8(v)
				}
			}
		}
	}
	full := half - 1
	bestV, best := -1, math.Inf(1)
	for v := 1; v < n; v++ {
		if c := dp[full*n+v] + d[v*n]; c < best {
			bestV, best = v, c
		}
	}
	// Reconstruct; clearing point v from the mask clears bit v-1 of m
	// (nothing for v = 0, the start).
	tour := make(Tour, 0, n)
	m, v := full, bestV
	for v != -1 {
		tour = append(tour, v)
		pv := parent[m*n+v]
		m &^= 1 << uint(v) >> 1
		v = int(pv)
	}
	// tour is reversed and ends at 0.
	for i, j := 0, len(tour)-1; i < j; i, j = i+1, j-1 {
		tour[i], tour[j] = tour[j], tour[i]
	}
	return tour, nil
}
