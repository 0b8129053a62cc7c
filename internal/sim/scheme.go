// Package sim runs round-based data-gathering simulations. Every scheme —
// the SHDGP mobile plan, multi-collector plans, the CLA and straight-line
// baselines, and the static sink — is adapted to a common Scheme
// interface; the runner then charges per-round energy until the first
// sensor dies (network lifetime) and reports per-round collection latency.
package sim

import (
	"mobicol/internal/baselines"
	"mobicol/internal/collector"
	"mobicol/internal/energy"
	"mobicol/internal/geom"
	"mobicol/internal/routing"
	"mobicol/internal/wsn"
)

// Scheme is one data-gathering scheme under simulation.
type Scheme interface {
	// Name identifies the scheme in tables.
	Name() string
	// ChargeRound debits one gathering round against the ledger.
	ChargeRound(led *energy.Ledger)
	// RoundTime returns the latency of one gathering round in seconds.
	RoundTime(spec collector.Spec, relayDelay float64) float64
	// TourLength returns the per-round collector driving distance
	// (0 for the static sink).
	TourLength() geom.Meters
	// Coverage returns the fraction of sensors whose data is gathered.
	Coverage() float64
}

// Mobile adapts a single-collector TourPlan (SHDGP plan, visit-all tour,
// or CLA sweep). UploadDist overrides the per-sensor upload distance when
// non-nil; CLA uses the perpendicular line distance rather than the
// distance to the recorded endpoint stop.
type Mobile struct {
	Label      string
	Plan       *collector.TourPlan
	net        *wsn.Network
	uploadDist func(i int) float64
}

// NewMobile adapts a tour plan over nw.
func NewMobile(label string, nw *wsn.Network, plan *collector.TourPlan) *Mobile {
	return &Mobile{Label: label, Plan: plan, net: nw}
}

// NewCLA adapts a CLA sweep with line-distance upload semantics.
func NewCLA(nw *wsn.Network, plan *collector.TourPlan) *Mobile {
	m := NewMobile("cla", nw, plan)
	m.uploadDist = func(i int) float64 { return baselines.CLAUploadDistance(nw, plan, i) }
	return m
}

// Name implements Scheme.
func (m *Mobile) Name() string { return m.Label }

// ChargeRound implements Scheme: each served sensor pays one single-hop
// transmission to its stop.
func (m *Mobile) ChargeRound(led *energy.Ledger) {
	for i, s := range m.Plan.UploadAt {
		if s < 0 {
			continue
		}
		d := m.net.Nodes[i].Pos.Dist(m.Plan.Stops[s])
		if m.uploadDist != nil {
			d = m.uploadDist(i)
		}
		led.ChargeTx(i, d)
	}
	led.EndRound()
}

// RoundTime implements Scheme.
func (m *Mobile) RoundTime(spec collector.Spec, relayDelay float64) float64 {
	return m.Plan.RoundTime(spec)
}

// TourLength implements Scheme.
func (m *Mobile) TourLength() geom.Meters { return m.Plan.Length() }

// Coverage implements Scheme.
func (m *Mobile) Coverage() float64 {
	if m.net.N() == 0 {
		return 1
	}
	return float64(m.Plan.Served()) / float64(m.net.N())
}

// Static adapts the static-sink multi-hop baseline.
type Static struct {
	Plan *routing.Plan
}

// NewStatic adapts a routing plan.
func NewStatic(plan *routing.Plan) *Static { return &Static{Plan: plan} }

// Name implements Scheme.
func (s *Static) Name() string { return "static-sink" }

// ChargeRound implements Scheme: every connected sensor transmits its own
// packet plus everything it relays (Load[i] transmissions at its next-hop
// distance) and receives Load[i]-1 packets.
func (s *Static) ChargeRound(led *energy.Ledger) {
	nw := s.Plan.Net
	for i := 0; i < nw.N(); i++ {
		if !s.Plan.Connected(i) {
			continue
		}
		var d float64
		if s.Plan.NextHop[i] == routing.DirectUpload {
			d = nw.Nodes[i].Pos.Dist(nw.Sink)
		} else {
			d = nw.Nodes[i].Pos.Dist(nw.Nodes[s.Plan.NextHop[i]].Pos)
		}
		for t := 0; t < s.Plan.Load[i]; t++ {
			led.ChargeTx(i, d)
		}
		for r := 0; r < s.Plan.Load[i]-1; r++ {
			led.ChargeRx(i)
		}
	}
	led.EndRound()
}

// RoundTime implements Scheme: packets pipeline along the tree, so the
// round completes after the deepest sensor's packets hop home.
func (s *Static) RoundTime(spec collector.Spec, relayDelay float64) float64 {
	maxHops := 0
	for _, h := range s.Plan.Hops {
		if h > maxHops {
			maxHops = h
		}
	}
	return float64(maxHops) * relayDelay
}

// TourLength implements Scheme.
func (s *Static) TourLength() geom.Meters { return 0 }

// Coverage implements Scheme.
func (s *Static) Coverage() float64 { return s.Plan.CoverageFraction() }

// StraightLine adapts the fixed-track data mule.
type StraightLine struct {
	Plan *baselines.StraightLinePlan
}

// NewStraightLine adapts a straight-line plan.
func NewStraightLine(plan *baselines.StraightLinePlan) *StraightLine {
	return &StraightLine{Plan: plan}
}

// Name implements Scheme.
func (s *StraightLine) Name() string { return "straight-line" }

// ChargeRound implements Scheme: track-adjacent sensors upload over their
// perpendicular distance; everyone transmits Load[i] packets toward its
// next hop and receives Load[i]-1.
func (s *StraightLine) ChargeRound(led *energy.Ledger) {
	nw := s.Plan.Net
	for i := 0; i < nw.N(); i++ {
		if s.Plan.NextHop[i] == -2 {
			continue
		}
		var d float64
		if s.Plan.NextHop[i] == -1 {
			d = s.Plan.UploadDistance(i)
		} else {
			d = nw.Nodes[i].Pos.Dist(nw.Nodes[s.Plan.NextHop[i]].Pos)
		}
		for t := 0; t < s.Plan.Load[i]; t++ {
			led.ChargeTx(i, d)
		}
		for r := 0; r < s.Plan.Load[i]-1; r++ {
			led.ChargeRx(i)
		}
	}
	led.EndRound()
}

// RoundTime implements Scheme: drive the fixed tracks plus relay latency.
func (s *StraightLine) RoundTime(spec collector.Spec, relayDelay float64) float64 {
	maxHops := 0
	served := 0
	for _, h := range s.Plan.Hops {
		if h > maxHops {
			maxHops = h
		}
		if h >= 0 {
			served++
		}
	}
	return s.Plan.TourLength().TravelTime(spec.Speed) + float64(served)*spec.UploadTime + float64(maxHops)*relayDelay
}

// TourLength implements Scheme.
func (s *StraightLine) TourLength() geom.Meters { return s.Plan.TourLength() }

// Coverage implements Scheme.
func (s *StraightLine) Coverage() float64 { return s.Plan.CoverageFraction() }
