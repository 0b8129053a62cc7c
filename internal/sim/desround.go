package sim

import (
	"fmt"

	"mobicol/internal/collector"
	"mobicol/internal/des"
	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/routing"
	"mobicol/internal/wsn"
)

// RoundTrace is the packet-level outcome of one gathering round.
type RoundTrace struct {
	// Done[i] is the time sensor i's packet was collected: picked up by
	// the collector (mobile schemes) or delivered to the sink (static).
	// Negative for packets that never arrive.
	Done []float64
	// Finish is the time the round completed (collector back at the
	// sink, or last packet delivered).
	Finish float64
	// PeakQueue[i] is the peak number of packets buffered at node i
	// (static relaying) or at stop i (mobile schemes). Buffer sizing —
	// the paper's motivation for bounding sensors per stop — reads
	// straight off this.
	PeakQueue []int
}

// MaxQueue returns the largest peak buffer occupancy.
func (rt *RoundTrace) MaxQueue() int {
	m := 0
	for _, q := range rt.PeakQueue {
		if q > m {
			m = q
		}
	}
	return m
}

// DESMobileRound simulates one collector round at packet granularity: the
// collector drives stop to stop at spec.Speed and polls each assigned
// sensor sequentially (spec.UploadTime each). Done[i] is the pickup time.
// PeakQueue is per stop: how many packets sat buffered there when the
// collector arrived — exactly the polling point's required buffer.
func DESMobileRound(nw *wsn.Network, plan *collector.TourPlan, spec collector.Spec) (*RoundTrace, error) {
	return DESMobileRoundObs(nw, plan, spec, nil)
}

// DESMobileRoundObs is DESMobileRound with observability: a "des.mobile"
// span carrying the dispatched-event count and simulated finish time,
// the "des.events" counter, and the per-stop peak buffer occupancy in
// the "des.queue_peak" histogram. A nil span disables tracing.
func DESMobileRoundObs(nw *wsn.Network, plan *collector.TourPlan, spec collector.Spec, sp *obs.Span) (*RoundTrace, error) {
	if spec.Speed <= 0 {
		return nil, fmt.Errorf("sim: non-positive collector speed")
	}
	n := nw.N()
	rt := &RoundTrace{
		Done:      make([]float64, n),
		PeakQueue: make([]int, len(plan.Stops)),
	}
	for i := range rt.Done {
		rt.Done[i] = -1
	}
	// Sensors assigned per stop.
	atStop := make([][]int, len(plan.Stops))
	for i := range plan.UploadAt {
		if s := plan.StopOf(i); s >= 0 {
			atStop[s] = append(atStop[s], i)
		}
	}
	sim := des.New()
	cur := plan.Sink
	t := 0.0
	for sIdx, stop := range plan.Stops {
		t += geom.Meters(cur.Dist(stop)).TravelTime(spec.Speed)
		cur = stop
		rt.PeakQueue[sIdx] = len(atStop[sIdx])
		for k, sensor := range atStop[sIdx] {
			pickup := t + float64(k+1)*spec.UploadTime
			sensor := sensor
			sim.At(pickup, func(now float64) { rt.Done[sensor] = now })
		}
		t += float64(len(atStop[sIdx])) * spec.UploadTime
	}
	t += geom.Meters(cur.Dist(plan.Sink)).TravelTime(spec.Speed)
	finish := t
	sim.At(finish, func(now float64) { rt.Finish = now })
	if _, drained := sim.Run(0); !drained {
		return nil, fmt.Errorf("sim: mobile round did not drain")
	}
	recordDESRound(sp, "des.mobile", sim, rt)
	return rt, nil
}

// recordDESRound attaches one DES round's outcome to sp: events
// dispatched (span field + "des.events" counter), the simulated finish
// time, and per-node/stop peak queue depths in "des.queue_peak". All of
// it is derived from simulator state, so the event content stays
// deterministic. No-op when sp is nil.
func recordDESRound(sp *obs.Span, name string, sim *des.Simulator, rt *RoundTrace) {
	if sp == nil {
		return
	}
	child := sp.Child(name)
	child.SetInt("events", int64(sim.Steps()))
	child.SetFloat("finish_s", rt.Finish)
	child.SetInt("queue_max", int64(rt.MaxQueue()))
	child.Count("des.events", int64(sim.Steps()))
	for _, q := range rt.PeakQueue {
		child.Observe("des.queue_peak", float64(q))
	}
	child.End()
}

// DESStaticRound simulates one static-sink round with store-and-forward
// contention: every sensor starts holding its own packet; a node transmits
// one packet per perHopDelay seconds toward its parent, queueing arrivals
// behind its own traffic. Unlike the closed-form maxHops·delay estimate,
// this captures the serialisation at sink-adjacent relays, which dominates
// in dense fields.
func DESStaticRound(plan *routing.Plan, perHopDelay float64) (*RoundTrace, error) {
	return DESStaticRoundObs(plan, perHopDelay, nil)
}

// DESStaticRoundObs is DESStaticRound with the same observability
// contract as DESMobileRoundObs, under a "des.static" span.
func DESStaticRoundObs(plan *routing.Plan, perHopDelay float64, sp *obs.Span) (*RoundTrace, error) {
	if perHopDelay <= 0 {
		return nil, fmt.Errorf("sim: non-positive per-hop delay")
	}
	nw := plan.Net
	n := nw.N()
	rt := &RoundTrace{
		Done:      make([]float64, n),
		PeakQueue: make([]int, n),
	}
	for i := range rt.Done {
		rt.Done[i] = -1
	}
	sim := des.New()
	queues := make([][]int, n) // packet origin IDs waiting at each node
	busy := make([]bool, n)

	var startTx func(node int)
	deliver := func(node, origin int, now float64) {
		if plan.NextHop[node] == routing.DirectUpload {
			rt.Done[origin] = now
			if now > rt.Finish {
				rt.Finish = now
			}
			return
		}
		next := plan.NextHop[node]
		queues[next] = append(queues[next], origin)
		if len(queues[next]) > rt.PeakQueue[next] {
			rt.PeakQueue[next] = len(queues[next])
		}
		if !busy[next] {
			startTx(next)
		}
	}
	startTx = func(node int) {
		if busy[node] || len(queues[node]) == 0 {
			return
		}
		busy[node] = true
		sim.After(perHopDelay, func(now float64) {
			origin := queues[node][0]
			queues[node] = queues[node][1:]
			busy[node] = false
			deliver(node, origin, now)
			startTx(node)
		})
	}
	// Seed: every connected sensor enqueues its own packet at t=0.
	for i := 0; i < n; i++ {
		if !plan.Connected(i) {
			continue
		}
		queues[i] = append(queues[i], i)
		if len(queues[i]) > rt.PeakQueue[i] {
			rt.PeakQueue[i] = len(queues[i])
		}
	}
	for i := 0; i < n; i++ {
		if len(queues[i]) > 0 {
			startTx(i)
		}
	}
	if _, drained := sim.Run(50_000_000); !drained {
		return nil, fmt.Errorf("sim: static round exceeded event budget")
	}
	recordDESRound(sp, "des.static", sim, rt)
	return rt, nil
}
