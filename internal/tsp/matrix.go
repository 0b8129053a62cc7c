package tsp

import (
	"fmt"
	"math"
)

// SolveMatrix plans a closed tour over an arbitrary symmetric distance
// matrix — the obstacle-aware planner's entry point, where distances are
// shortest obstacle-avoiding path lengths rather than Euclidean. The
// pipeline mirrors Solve: nearest-neighbour construction from vertex 0,
// then full 2-opt and Or-opt(1..3) local search to convergence. Infinite
// entries mark unreachable pairs; the construction avoids them when any
// finite alternative exists.
func SolveMatrix(d [][]float64) (Tour, error) {
	n := len(d)
	for i := range d {
		if len(d[i]) != n {
			return nil, fmt.Errorf("tsp: distance matrix row %d has %d entries, want %d", i, len(d[i]), n)
		}
	}
	if n <= 3 {
		return trivialTour(n), nil
	}
	// Nearest neighbour.
	visited := make([]bool, n)
	tour := make(Tour, 0, n)
	cur := 0
	visited[0] = true
	tour = append(tour, 0)
	for len(tour) < n {
		next, nd := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !visited[v] && d[cur][v] < nd {
				next, nd = v, d[cur][v]
			}
		}
		if next < 0 {
			// Everything remaining is unreachable from cur; append in
			// index order (the caller sees +Inf in the resulting length).
			for v := 0; v < n; v++ {
				if !visited[v] {
					visited[v] = true
					tour = append(tour, v)
				}
			}
			break
		}
		visited[next] = true
		tour = append(tour, next)
		cur = next
	}
	twoOptMatrix(d, tour)
	orOptMatrix(d, tour)
	twoOptMatrix(d, tour)
	return tour, nil
}

// twoOptMatrix is a full-scan 2-opt over the matrix metric.
func twoOptMatrix(d [][]float64, tour Tour) {
	n := len(tour)
	improved := true
	for improved {
		improved = false
		for i := 0; i < n-1; i++ {
			for j := i + 2; j < n; j++ {
				if i == 0 && j == n-1 {
					continue // same edge pair
				}
				a, b := tour[i], tour[i+1]
				c, e := tour[j], tour[(j+1)%n]
				if d[a][b]+d[c][e] > d[a][c]+d[b][e]+1e-12 {
					for lo, hi := i+1, j; lo < hi; lo, hi = lo+1, hi-1 {
						tour[lo], tour[hi] = tour[hi], tour[lo]
					}
					improved = true
				}
			}
		}
	}
}

// orOptMatrix relocates chains of 1–3 stops under the matrix metric.
func orOptMatrix(d [][]float64, tour Tour) {
	n := len(tour)
	if n < 5 {
		return
	}
	buf := make(Tour, 0, n)
	improved := true
	for improved {
		improved = false
	scan:
		for segLen := 1; segLen <= 3; segLen++ {
			if segLen >= n-2 {
				continue
			}
			for i := 0; i < n; i++ {
				p0 := tour[(i-1+n)%n]
				s0 := tour[i]
				s1 := tour[(i+segLen-1)%n]
				p1 := tour[(i+segLen)%n]
				removed := d[p0][s0] + d[s1][p1] - d[p0][p1]
				if removed <= 1e-12 {
					continue
				}
				for j := 0; j < n; j++ {
					if within(i, segLen, j, n) || (j+1)%n == i {
						continue
					}
					a, b := tour[j], tour[(j+1)%n]
					forward := d[a][s0] + d[s1][b] - d[a][b]
					backward := d[a][s1] + d[s0][b] - d[a][b]
					rev := backward < forward
					added := forward
					if rev {
						added = backward
					}
					if added < removed-1e-12 {
						relocate(tour, i, segLen, j, rev, buf)
						improved = true
						break scan
					}
				}
			}
		}
	}
}
