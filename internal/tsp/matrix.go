package tsp

import "fmt"

// ImproveMatrix improves the identity order 0, 1, …, n−1 as a closed
// tour over an arbitrary symmetric distance matrix — the obstacle-aware
// planner's entry point, where vertex 0 is the sink, the rest are a
// plan's stops in its visit order, and distances are shortest
// obstacle-avoiding path lengths rather than Euclidean. It runs the
// passes Improve runs, as full scans to convergence: 2-opt, Or-opt(1..3),
// then 2-opt again. Every move shortens the tour, so the result is never
// longer than the identity order. Infinite entries mark unreachable
// pairs; a move that trades an infinite edge for finite ones is taken
// like any other improvement.
func ImproveMatrix(d [][]float64) (Tour, error) {
	n := len(d)
	for i := range d {
		if len(d[i]) != n {
			return nil, fmt.Errorf("tsp: distance matrix row %d has %d entries, want %d", i, len(d[i]), n)
		}
	}
	tour := trivialTour(n)
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
						relocateByValue(tour, i, segLen, j, rev, buf)
						improved = true
						break scan
					}
				}
			}
		}
	}
}
