// Package mtsp plans tours for multiple M-collectors. For applications
// with strict per-round distance (equivalently time) constraints, the
// paper splits the data-gathering work across several collectors that
// traverse shorter sub-tours concurrently, each starting and ending at the
// static data sink.
//
// Two dual operations are provided:
//
//   - MinCollectors: given a per-collector tour-length bound, find the
//     fewest sub-tours whose lengths all respect the bound.
//   - MinMaxSplit: given k collectors, minimise the longest sub-tour.
//
// Both use the classic tour-splitting construction (Frederickson, Hecht &
// Kim): cut one master tour into consecutive segments, closing each
// segment through the sink. The master tour is the stops in the order
// they arrive, which is a single-collector plan's visit order. Splitting
// an optimal master tour with bound-respecting cuts is a constant-factor
// approximation for both objectives; each sub-tour is then polished with
// local search from the order it was cut in.
package mtsp

import (
	"fmt"
	"math"

	"mobicol/internal/collector"
	"mobicol/internal/geom"
	"mobicol/internal/tsp"
)

// MultiPlan is a set of sink-anchored sub-tours covering all stops.
type MultiPlan struct {
	Sink geom.Point
	// Tours[t] is the ordered stop list of collector t (sink excluded).
	Tours [][]geom.Point
	// StopTour[i] gives the tour index serving master stop i (indexing
	// the stops slice passed to the splitter).
	StopTour []int
}

// K returns the number of sub-tours.
func (mp *MultiPlan) K() int { return len(mp.Tours) }

// Lengths returns each sub-tour's closed length.
func (mp *MultiPlan) Lengths() []float64 {
	out := make([]float64, len(mp.Tours))
	for i, stops := range mp.Tours {
		out[i] = closedLength(mp.Sink, stops)
	}
	return out
}

// MaxLength returns the longest sub-tour length — the per-round latency
// bottleneck when collectors run concurrently.
func (mp *MultiPlan) MaxLength() float64 {
	m := 0.0
	for _, l := range mp.Lengths() {
		m = math.Max(m, l)
	}
	return m
}

// TotalLength returns the summed sub-tour length (total driving).
func (mp *MultiPlan) TotalLength() float64 {
	t := 0.0
	for _, l := range mp.Lengths() {
		t += l
	}
	return t
}

func closedLength(sink geom.Point, stops []geom.Point) float64 {
	if len(stops) == 0 {
		return 0
	}
	total := sink.Dist(stops[0])
	for i := 1; i < len(stops); i++ {
		total += stops[i-1].Dist(stops[i])
	}
	return total + stops[len(stops)-1].Dist(sink)
}

// splitByBound greedily cuts the stops, in visit order, into consecutive
// segments whose closed (through-sink) lengths do not exceed bound. It
// returns nil when some single stop is unreachable within the bound
// (out-and-back already exceeds it), in which case no splitting can help.
func splitByBound(sink geom.Point, stops []geom.Point, bound float64) [][]int {
	var segments [][]int
	var cur []int
	curLen := 0.0 // sink -> ... -> last of cur (open)
	for s, p := range stops {
		if sink.Dist(p)*2 > bound+1e-9 {
			return nil
		}
		var candLen float64
		if len(cur) == 0 {
			candLen = sink.Dist(p)
		} else {
			candLen = curLen + stops[cur[len(cur)-1]].Dist(p)
		}
		if len(cur) > 0 && candLen+p.Dist(sink) > bound+1e-9 {
			segments = append(segments, cur)
			cur = []int{s}
			curLen = sink.Dist(p)
			continue
		}
		cur = append(cur, s)
		curLen = candLen
	}
	if len(cur) > 0 {
		segments = append(segments, cur)
	}
	return segments
}

// assemble turns index segments into a MultiPlan, polishing each
// sub-tour (sink anchored) from the order it was cut in. tsp.Improve never
// lengthens the order it is given, so a sub-tour keeps the splitter's
// length bound, and a segment that is already a converged tour, such as
// the whole plan with one collector, comes back unchanged.
func assemble(sink geom.Point, stops []geom.Point, segments [][]int) *MultiPlan {
	mp := &MultiPlan{Sink: sink, StopTour: make([]int, len(stops))}
	for i := range mp.StopTour {
		mp.StopTour[i] = -1
	}
	for t, seg := range segments {
		segPts := make([]geom.Point, 0, len(seg)+1)
		segPts = append(segPts, sink)
		for _, s := range seg {
			segPts = append(segPts, stops[s])
		}
		tour, _ := tsp.Improve(segPts, nil, tsp.DefaultOptions(), nil)
		tour.RotateTo(0)
		ordered := make([]geom.Point, 0, len(seg))
		for _, idx := range tour[1:] {
			ordered = append(ordered, segPts[idx])
		}
		for _, s := range seg {
			mp.StopTour[s] = t
		}
		mp.Tours = append(mp.Tours, ordered)
	}
	return mp
}

// MinCollectors returns the fewest sub-tours, each of closed length at
// most bound, covering all stops. The stops arrive in visit order (a
// plan's Stops), and the sub-tours are cut from that order. It errors
// when some stop cannot be visited within the bound even by a dedicated
// collector.
func MinCollectors(sink geom.Point, stops []geom.Point, bound float64) (*MultiPlan, error) {
	if bound <= 0 {
		return nil, fmt.Errorf("mtsp: non-positive tour bound %v", bound)
	}
	if len(stops) == 0 {
		return &MultiPlan{Sink: sink}, nil
	}
	segments := splitByBound(sink, stops, bound)
	if segments == nil {
		return nil, fmt.Errorf("mtsp: a stop needs a %0.1fm round trip, exceeding the %0.1fm bound",
			worstRoundTrip(sink, stops), bound)
	}
	mp := assemble(sink, stops, segments)
	// Polishing can only shorten sub-tours, so the bound still holds;
	// verify defensively.
	for _, l := range mp.Lengths() {
		if l > bound+1e-6 {
			return nil, fmt.Errorf("mtsp: internal error: sub-tour %0.1fm exceeds bound %0.1fm", l, bound)
		}
	}
	return mp, nil
}

func worstRoundTrip(sink geom.Point, stops []geom.Point) float64 {
	w := 0.0
	for _, p := range stops {
		w = math.Max(w, 2*sink.Dist(p))
	}
	return w
}

// MinMaxSplit divides the stops among exactly k collectors, minimising the
// longest sub-tour. The stops arrive in visit order (a plan's Stops),
// and the sub-tours are cut from that order. It binary-searches the bound
// over splitByBound: the number of segments needed is non-increasing in
// the bound, so the search converges to the smallest bound feasible with
// k segments.
func MinMaxSplit(sink geom.Point, stops []geom.Point, k int) (*MultiPlan, error) {
	if k <= 0 {
		return nil, fmt.Errorf("mtsp: need at least one collector, got %d", k)
	}
	if len(stops) == 0 {
		return &MultiPlan{Sink: sink}, nil
	}
	lo := worstRoundTrip(sink, stops)
	hi := closedLength(sink, stops)
	var bestSegs [][]int
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		segs := splitByBound(sink, stops, mid)
		if segs != nil && len(segs) <= k {
			bestSegs = segs
			hi = mid
		} else {
			lo = mid
		}
	}
	if bestSegs == nil {
		bestSegs = splitByBound(sink, stops, hi)
		if bestSegs == nil || len(bestSegs) > k {
			// hi is the master tour's length, always feasible with one
			// segment, so this cannot happen.
			return nil, fmt.Errorf("mtsp: internal error: no feasible %d-split", k)
		}
	}
	return assemble(sink, stops, bestSegs), nil
}

// TourPlans converts the multi-plan into per-collector executable plans
// given the sensor upload assignment of the underlying single-collector
// solution: sensor i rides with the tour serving its stop.
func (mp *MultiPlan) TourPlans(sensors []geom.Point, uploadAt []int, masterStops []geom.Point) ([]*collector.TourPlan, error) {
	if len(uploadAt) != len(sensors) {
		return nil, fmt.Errorf("mtsp: %d assignments for %d sensors", len(uploadAt), len(sensors))
	}
	plans := make([]*collector.TourPlan, len(mp.Tours))
	// Map each master stop position to (tour, index within tour).
	type loc struct{ tour, idx int }
	locOf := make(map[geom.Point]loc, len(masterStops))
	for t, tour := range mp.Tours {
		for i, p := range tour {
			locOf[p] = loc{t, i}
		}
	}
	for t := range plans {
		plans[t] = &collector.TourPlan{
			Sink:     mp.Sink,
			Stops:    mp.Tours[t],
			UploadAt: make([]int, len(sensors)),
		}
		for i := range sensors {
			plans[t].UploadAt[i] = -1
		}
	}
	for i, a := range uploadAt {
		if a < 0 || a >= len(masterStops) {
			continue
		}
		l, ok := locOf[masterStops[a]]
		if !ok {
			return nil, fmt.Errorf("mtsp: master stop %d missing from sub-tours", a)
		}
		plans[l.tour].UploadAt[i] = l.idx
	}
	return plans, nil
}
