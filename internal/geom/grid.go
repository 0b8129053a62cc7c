package geom

import "math"

// GridIndex is a uniform spatial hash over points that answers
// fixed-radius range queries in expected O(1 + output) time. It is the
// workhorse behind unit-disk-graph construction: building the neighbour
// lists of an N-sensor field costs O(N) with a cell size equal to the
// transmission range, versus O(N²) for the naive double loop.
//
// Internally the index stores the points twice: once as the caller's
// []Point (for identity) and once as flat xs/ys coordinate slices
// grouped by cell in CSR layout (cellStart/order). Queries scan each
// candidate cell's contiguous coordinate range with the batch kernels
// from batch.go instead of chasing a map of bucket slices, which is
// both allocation-free at query time and vectorisation-friendly.
type GridIndex struct {
	cell float64
	pts  []Point
	minX float64
	minY float64
	cols int
	rows int
	// CSR buckets: cell k holds points order[cellStart[k]:cellStart[k+1]],
	// ascending by point index. xs/ys are the coordinates of order[i]'s
	// point at flat position i, so one cell is one contiguous slice pair.
	cellStart []int32
	order     []int32
	xs        []float64
	ys        []float64
}

// NewGridIndex indexes pts with the given cell size (> 0). The cell table
// is capped near 4 cells per point (plus slack for tiny n): a cell size
// far below the points' spacing grows the cell instead, so the table
// stays O(n) for any cell size and extent. Queries return the same
// point sets whatever the cell size. The index keeps a reference to
// pts; callers must not mutate the slice afterwards.
//
//mdglint:allow-mut(initializes only the index's freshly allocated CSR arrays; pts is retained read-only by the documented contract above)
func NewGridIndex(pts []Point, cell float64) *GridIndex {
	if !(cell > 0) {
		//mdglint:ignore nopanic documented precondition; cell sizes are positive literals or ranges in all callers
		panic("geom: NewGridIndex with non-positive cell size")
	}
	g := &GridIndex{cell: cell, pts: pts}
	if len(pts) == 0 {
		g.cols, g.rows = 1, 1
		g.cellStart = make([]int32, 2)
		return g
	}
	b := Bound(pts)
	span := math.Max(b.Max.X-b.Min.X, b.Max.Y-b.Min.Y)
	g.cell = math.Max(cell, span/math.Sqrt(4*float64(len(pts))+64))
	g.minX, g.minY = b.Min.X, b.Min.Y
	g.cols = int(math.Floor((b.Max.X-b.Min.X)/g.cell)) + 1
	g.rows = int(math.Floor((b.Max.Y-b.Min.Y)/g.cell)) + 1
	// Counting sort by cell key. Appending point indices in input order
	// keeps each cell's bucket ascending, matching the map-of-slices
	// construction this replaces bit for bit.
	cells := g.cols * g.rows
	g.cellStart = make([]int32, cells+1)
	for _, p := range pts {
		g.cellStart[g.key(p)+1]++
	}
	for k := 0; k < cells; k++ {
		g.cellStart[k+1] += g.cellStart[k]
	}
	g.order = make([]int32, len(pts))
	g.xs = make([]float64, len(pts))
	g.ys = make([]float64, len(pts))
	fill := make([]int32, cells)
	for i, p := range pts {
		k := g.key(p)
		at := g.cellStart[k] + fill[k]
		fill[k]++
		g.order[at] = int32(i)
		g.xs[at] = p.X
		g.ys[at] = p.Y
	}
	return g
}

// DefaultGridOccupancy is the points-per-cell target NewGridIndexAuto
// aims for. Around two points per cell keeps range queries touching a
// handful of points per cell without exploding the cell table.
const DefaultGridOccupancy = 2.0

// NewGridIndexAuto indexes pts with a cell size derived from the point
// density instead of a caller-supplied radius: cells are sized so the
// expected occupancy is targetOccupancy points per cell (<= 0 selects
// DefaultGridOccupancy). Radius-derived cell sizes degrade at scale —
// at n=100k a range-sized cell on a dense field holds hundreds of
// points and every query degenerates toward a linear scan — while
// occupancy-derived cells keep per-cell work constant at any n. The
// cell table is capped by NewGridIndex, so degenerate aspect ratios
// cannot balloon memory, and coincident point sets fall back to a
// single-cell index.
func NewGridIndexAuto(pts []Point, targetOccupancy float64) *GridIndex {
	if targetOccupancy <= 0 {
		targetOccupancy = DefaultGridOccupancy
	}
	n := len(pts)
	if n == 0 {
		return NewGridIndex(pts, 1)
	}
	b := Bound(pts)
	w, h := b.Max.X-b.Min.X, b.Max.Y-b.Min.Y
	span := math.Max(w, h)
	if !(span > 0) {
		// All points coincident: any cell size yields one bucket.
		return NewGridIndex(pts, 1)
	}
	var cell float64
	if w > 0 && h > 0 {
		cell = math.Sqrt(w * h * targetOccupancy / float64(n))
	} else {
		// Collinear points: one axis is degenerate, so size along the
		// populated axis only.
		cell = span * targetOccupancy / float64(n)
	}
	return NewGridIndex(pts, cell)
}

// NewGridIndexFor indexes pts for fixed-radius queries of radius r: the
// classic radius-sized cell on sparse fields, shrinking toward the
// occupancy-derived auto size when the field is dense enough that
// r-sized cells would hold many points each. Use it wherever the query
// radius is known up front (coverage construction, neighbour queries).
func NewGridIndexFor(pts []Point, r float64) *GridIndex {
	if r <= 0 {
		//mdglint:ignore nopanic documented precondition; query radii are positive ranges in all callers
		panic("geom: NewGridIndexFor with non-positive radius")
	}
	n := len(pts)
	if n == 0 {
		return NewGridIndex(pts, r)
	}
	b := Bound(pts)
	w, h := b.Max.X-b.Min.X, b.Max.Y-b.Min.Y
	if w > 0 && h > 0 {
		if auto := math.Sqrt(w * h * DefaultGridOccupancy / float64(n)); auto < r {
			return NewGridIndexAuto(pts, DefaultGridOccupancy)
		}
	}
	return NewGridIndex(pts, r)
}

// CellSize returns the index's cell edge length in metres.
func (g *GridIndex) CellSize() float64 { return g.cell }

func (g *GridIndex) cellOf(p Point) (cx, cy int) {
	cx = int(math.Floor((p.X - g.minX) / g.cell))
	cy = int(math.Floor((p.Y - g.minY) / g.cell))
	return cx, cy
}

func (g *GridIndex) key(p Point) int {
	cx, cy := g.cellOf(p)
	return cy*g.cols + cx
}

// Within appends to dst the indices of all indexed points within distance r
// of q (inclusive) and returns the extended slice. Pass a reused buffer to
// avoid allocation in hot loops.
func (g *GridIndex) Within(q Point, r float64, dst []int) []int {
	if len(g.pts) == 0 {
		return dst
	}
	r2 := r*r + Eps
	span := int(math.Ceil(r/g.cell)) + 1
	cx, cy := g.cellOf(q)
	for dy := -span; dy <= span; dy++ {
		y := cy + dy
		if y < 0 || y >= g.rows {
			continue
		}
		lo := max(cx-span, 0)
		hi := min(cx+span, g.cols-1)
		for x := lo; x <= hi; x++ {
			k := y*g.cols + x
			s, e := g.cellStart[k], g.cellStart[k+1]
			xs, ys := g.xs[s:e], g.ys[s:e]
			for i := range xs {
				dx := xs[i] - q.X
				dyy := ys[i] - q.Y
				if dx*dx+dyy*dyy <= r2 {
					//mdglint:allow-alloc(amortized growth of the caller's hit buffer)
					dst = append(dst, int(g.order[s+int32(i)]))
				}
			}
		}
	}
	return dst
}

// Nearest returns the index of the indexed point closest to q, or -1 for an
// empty index. Ties break toward the lower index. The skip function, when
// non-nil, excludes points (e.g. fragment endpoints already linked); -1
// means every point was skipped.
func (g *GridIndex) Nearest(q Point, skip func(i int) bool) int {
	if len(g.pts) == 0 {
		return -1
	}
	// Expand ring by ring until a hit is found, then one more ring to be
	// safe (a closer point can live in the next ring than the first hit's).
	best, bestD2 := -1, math.Inf(1)
	cx, cy := g.cellOf(q)
	// The search must be able to reach every cell even when q lies far
	// outside the indexed bounding box.
	maxSpan := max(max(abs(cx), abs(g.cols-1-cx)), max(abs(cy), abs(g.rows-1-cy)))
	for span := 0; span <= maxSpan; span++ {
		found := false
		for dy := -span; dy <= span; dy++ {
			y := cy + dy
			if y < 0 || y >= g.rows {
				continue
			}
			// Interior rows of the ring hold only its two edge columns;
			// the cells between were scanned in earlier rings.
			step := 1
			if abs(dy) != span {
				step = 2 * span
			}
			for dx := -span; dx <= span; dx += step {
				x := cx + dx
				if x < 0 || x >= g.cols {
					continue
				}
				k := y*g.cols + x
				s, e := g.cellStart[k], g.cellStart[k+1]
				xs, ys := g.xs[s:e], g.ys[s:e]
				for i := range xs {
					ddx := xs[i] - q.X
					ddy := ys[i] - q.Y
					d2 := ddx*ddx + ddy*ddy
					idx := int(g.order[s+int32(i)])
					if (d2 < bestD2 || (d2 == bestD2 && idx < best)) && (skip == nil || !skip(idx)) {
						best, bestD2 = idx, d2
						found = true
					}
				}
			}
		}
		// Once a candidate exists and the ring is farther than the best
		// distance, no closer point can appear.
		if best >= 0 && !found {
			ringDist := float64(span-1) * g.cell
			if ringDist*ringDist > bestD2 {
				break
			}
		}
	}
	return best
}

// NearestWithin returns the index of the closest indexed point within
// distance r of q and its squared distance, or (-1, +inf) when no point
// is in range. Ties break toward the lower index. Unlike Nearest it
// never expands past the radius, so dense-field callers with a known
// bound (warm-start stop assignment) pay O(cells under r), not O(rings
// to the nearest point).
func (g *GridIndex) NearestWithin(q Point, r float64) (int, float64) {
	best, bestD2 := -1, math.Inf(1)
	if len(g.pts) == 0 {
		return best, bestD2
	}
	bound := r*r + Eps
	span := int(math.Ceil(r/g.cell)) + 1
	cx, cy := g.cellOf(q)
	for dy := -span; dy <= span; dy++ {
		y := cy + dy
		if y < 0 || y >= g.rows {
			continue
		}
		lo := max(cx-span, 0)
		hi := min(cx+span, g.cols-1)
		for x := lo; x <= hi; x++ {
			k := y*g.cols + x
			s, e := g.cellStart[k], g.cellStart[k+1]
			xs, ys := g.xs[s:e], g.ys[s:e]
			for i := range xs {
				dx := xs[i] - q.X
				dyy := ys[i] - q.Y
				d2 := dx*dx + dyy*dyy
				if d2 > bound {
					continue
				}
				idx := int(g.order[s+int32(i)])
				if d2 < bestD2 || (d2 == bestD2 && idx < best) {
					best, bestD2 = idx, d2
				}
			}
		}
	}
	return best, bestD2
}

// Len returns the number of indexed points.
func (g *GridIndex) Len() int { return len(g.pts) }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
