package geom

import "math"

// GridIndex is a uniform spatial hash over points that answers
// fixed-radius range queries in expected O(1 + output) time, and
// nearest and k-nearest queries by ring search. It is the
// workhorse behind unit-disk-graph construction: building the neighbour
// lists of an N-sensor field costs O(N) with a cell size equal to the
// transmission range, versus O(N²) for the naive double loop.
//
// Internally the index stores the points twice: once as the caller's
// []Point (for identity) and once as flat xs/ys coordinate slices
// grouped by cell in CSR layout (cellStart/order). Cells are numbered
// row-major, so a row of cells is one contiguous coordinate range that
// a query scans in one loop, allocation-free.
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

// axisCell returns the cell along one axis (origin o, n cells) that holds
// coordinate v, clamped to [0, n-1] in float before the int conversion,
// so that far, huge or non-finite coordinates cannot overflow. It is the
// one place coordinates become cells: for indexed points the clamp never
// fires, and a clamped query cell is the grid cell nearest the query.
func (g *GridIndex) axisCell(v, o float64, n int) int {
	t := math.Floor((v - o) / g.cell)
	if !(t > 0) { // NaN lands here too
		return 0
	}
	if t >= float64(n-1) {
		return n - 1
	}
	return int(t)
}

func (g *GridIndex) cellOf(p Point) (cx, cy int) {
	return g.axisCell(p.X, g.minX, g.cols), g.axisCell(p.Y, g.minY, g.rows)
}

func (g *GridIndex) key(p Point) int {
	cx, cy := g.cellOf(p)
	return cy*g.cols + cx
}

// box returns the clamped cell rectangle [x0, x1]×[y0, y1] that holds
// every indexed point whose squared distance to q is at most r2. A point
// the distance test accepts lies within sqrt(r2)·(1+3u) of q along each
// axis (u the unit roundoff), so within the half side h. Rounding q±h
// cannot step past such a point's coordinate, itself a float, and the
// cell map is monotone in the coordinate, so the point's cell is inside
// the box.
func (g *GridIndex) box(q Point, r2 float64) (x0, x1, y0, y1 int) {
	h := math.Sqrt(r2) * (1 + 1e-9)
	x0, x1 = g.axisCell(q.X-h, g.minX, g.cols), g.axisCell(q.X+h, g.minX, g.cols)
	y0, y1 = g.axisCell(q.Y-h, g.minY, g.rows), g.axisCell(q.Y+h, g.minY, g.rows)
	return x0, x1, y0, y1
}

// Within appends to dst the indices of all indexed points within distance r
// of q (inclusive) and returns the extended slice. Pass a reused buffer to
// avoid allocation in hot loops.
func (g *GridIndex) Within(q Point, r float64, dst []int) []int {
	r2 := r*r + Eps
	x0, x1, y0, y1 := g.box(q, r2)
	for y := y0; y <= y1; y++ {
		// One row of the box is one contiguous run of the CSR arrays.
		s, e := g.cellStart[y*g.cols+x0], g.cellStart[y*g.cols+x1+1]
		for i := s; i < e; i++ {
			dx := g.xs[i] - q.X
			dy := g.ys[i] - q.Y
			if dx*dx+dy*dy <= r2 {
				//mdglint:allow-alloc(amortized growth of the caller's hit buffer)
				dst = append(dst, int(g.order[i]))
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
	var nbr [1]int
	var d2 [1]float64
	if g.nearest(q, -1, skip, nbr[:], d2[:]) == 0 {
		return -1
	}
	return nbr[0]
}

// NearestK writes to nbr the indices of the len(nbr) indexed points
// nearest q, leaving out self (-1 leaves out none), in ascending
// (squared distance, index) order, and their squared distances to the
// same slots of d2, which must be at least as long. It returns how many
// it wrote: len(nbr), or every other indexed point when there are
// fewer. The query walks cell rings outward from q's cell and touches
// only rings that could still hold a point beating the k-th.
//
//mdglint:hotpath
func (g *GridIndex) NearestK(q Point, self int, nbr []int, d2 []float64) int {
	return g.nearest(q, self, nil, nbr, d2)
}

// nearest is NearestK with an optional skip predicate (Nearest's). It
// stops before ring s >= 2 once the k-th squared distance is below
// ((s-1)·cell)²: a point in ring s or beyond is at least (s-1)·cell from
// q along one axis, less a rounding term of about 4u·cells·cell from
// the cell map (u the unit roundoff, cells the grid's columns or rows),
// which NewGridIndex's cap of about 2·sqrt(n) cells per axis keeps far
// below the 1e-9 relative slack taken off the bound. Clamping a query
// outside the grid to its nearest cell keeps the bound: it moves the
// query cell toward every indexed cell.
func (g *GridIndex) nearest(q Point, self int, skip func(int) bool, nbr []int, d2 []float64) int {
	k, m := len(nbr), 0
	if k == 0 {
		return 0
	}
	cx, cy := g.cellOf(q)
	maxSpan := max(cx, g.cols-1-cx, cy, g.rows-1-cy)
	for s := 0; s <= maxSpan; s++ {
		if m == k && s >= 2 {
			lb := float64(s-1) * g.cell * (1 - 1e-9)
			if lb*lb > d2[k-1] {
				break
			}
		}
		x0, x1 := max(cx-s, 0), min(cx+s, g.cols-1)
		for y := max(cy-s, 0); y <= min(cy+s, g.rows-1); y++ {
			row := y * g.cols
			if y == cy-s || y == cy+s {
				// The ring's top and bottom edges are whole row runs.
				m = g.scanK(q, self, skip, g.cellStart[row+x0], g.cellStart[row+x1+1], m, nbr, d2)
				continue
			}
			// Interior rows hold only the ring's two edge columns.
			if cx-s >= 0 {
				m = g.scanK(q, self, skip, g.cellStart[row+cx-s], g.cellStart[row+cx-s+1], m, nbr, d2)
			}
			if cx+s < g.cols {
				m = g.scanK(q, self, skip, g.cellStart[row+cx+s], g.cellStart[row+cx+s+1], m, nbr, d2)
			}
		}
	}
	return m
}

// scanK merges the points at CSR positions [s, e) into the m best found
// so far (nbr/d2 ascending by squared distance, then index) and returns
// the new count.
func (g *GridIndex) scanK(q Point, self int, skip func(int) bool, s, e int32, m int, nbr []int, d2 []float64) int {
	k := len(nbr)
	for i := s; i < e; i++ {
		dx := g.xs[i] - q.X
		dy := g.ys[i] - q.Y
		dd := dx*dx + dy*dy
		j := int(g.order[i])
		if m == k && (dd > d2[k-1] || (dd == d2[k-1] && j > nbr[k-1])) {
			continue
		}
		if j == self || (skip != nil && skip(j)) {
			continue
		}
		at := m
		if m < k {
			m++
		} else {
			at = k - 1
		}
		for at > 0 && (d2[at-1] > dd || (d2[at-1] == dd && nbr[at-1] > j)) {
			nbr[at], d2[at] = nbr[at-1], d2[at-1]
			at--
		}
		nbr[at], d2[at] = j, dd
	}
	return m
}

// NearestWithin returns the index of the closest indexed point within
// distance r of q and its squared distance, or (-1, +inf) when no point
// is in range. Ties break toward the lower index. Unlike Nearest it
// never expands past the radius, so dense-field callers with a known
// bound (warm-start stop assignment) pay O(cells under r), not O(rings
// to the nearest point).
func (g *GridIndex) NearestWithin(q Point, r float64) (int, float64) {
	best, bestD2 := -1, math.Inf(1)
	bound := r*r + Eps
	x0, x1, y0, y1 := g.box(q, bound)
	for y := y0; y <= y1; y++ {
		s, e := g.cellStart[y*g.cols+x0], g.cellStart[y*g.cols+x1+1]
		for i := s; i < e; i++ {
			dx := g.xs[i] - q.X
			dy := g.ys[i] - q.Y
			d2 := dx*dx + dy*dy
			if d2 > bound {
				continue
			}
			idx := int(g.order[i])
			if best < 0 || d2 < bestD2 || (d2 == bestD2 && idx < best) {
				best, bestD2 = idx, d2
			}
		}
	}
	return best, bestD2
}

// Len returns the number of indexed points.
func (g *GridIndex) Len() int { return len(g.pts) }
