package sim

import (
	"fmt"

	"mobicol/internal/collector"
	"mobicol/internal/energy"
	"mobicol/internal/geom"
	"mobicol/internal/wsn"
)

// Rotation alternates between several tour plans round-robin. Each plan
// stresses different sensors (its stops sit closer to some and farther
// from others); cycling averages the per-sensor upload cost, so the first
// death — which tracks the worst per-round cost — arrives later than under
// any single plan. The collector drives a different tour each round; the
// latency cost is the longest of the plans.
type Rotation struct {
	Label string
	Plans []*collector.TourPlan
	net   *wsn.Network
}

// NewRotation wraps the plans. It errors on an empty set or plans that do
// not serve every sensor of the network.
func NewRotation(label string, nw *wsn.Network, plans []*collector.TourPlan) (*Rotation, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("sim: rotation needs at least one plan")
	}
	for pi, p := range plans {
		if len(p.UploadAt) != nw.N() {
			return nil, fmt.Errorf("sim: rotation plan %d covers %d of %d sensors", pi, len(p.UploadAt), nw.N())
		}
	}
	return &Rotation{Label: label, Plans: plans, net: nw}, nil
}

// Name implements Scheme.
func (r *Rotation) Name() string { return r.Label }

// ChargeRound implements Scheme: the ledger's round counter selects the
// active plan.
func (r *Rotation) ChargeRound(led *energy.Ledger) {
	plan := r.Plans[led.Round()%len(r.Plans)]
	for i := range plan.UploadAt {
		if s := plan.StopOf(i); s >= 0 {
			led.ChargeTx(i, r.net.Nodes[i].Pos.Dist(plan.Stops[s]))
		}
	}
	led.EndRound()
}

// RoundTime implements Scheme (worst plan bounds the deadline).
func (r *Rotation) RoundTime(spec collector.Spec, relayDelay float64) float64 {
	worst := 0.0
	for _, p := range r.Plans {
		if rt := p.RoundTime(spec); rt > worst {
			worst = rt
		}
	}
	return worst
}

// TourLength implements Scheme (mean driving per round).
func (r *Rotation) TourLength() geom.Meters {
	total := geom.Meters(0)
	for _, p := range r.Plans {
		total += p.Length()
	}
	return total / geom.Meters(len(r.Plans))
}

// Coverage implements Scheme (every plan must serve a sensor for it to
// count as covered under rotation).
func (r *Rotation) Coverage() float64 {
	if r.net.N() == 0 {
		return 1
	}
	covered := 0
	for i := 0; i < r.net.N(); i++ {
		all := true
		for _, p := range r.Plans {
			if p.StopOf(i) < 0 {
				all = false
				break
			}
		}
		if all {
			covered++
		}
	}
	return float64(covered) / float64(r.net.N())
}
