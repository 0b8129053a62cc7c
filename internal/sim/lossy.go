package sim

import (
	"fmt"

	"mobicol/internal/collector"
	"mobicol/internal/energy"
	"mobicol/internal/geom"
	"mobicol/internal/radio"
	"mobicol/internal/routing"
	"mobicol/internal/wsn"
)

// LossyMobile is the mobile single-hop scheme under a lossy link model:
// each upload costs its expected ARQ attempts, and delivery is
// probabilistic beyond the reliable region.
type LossyMobile struct {
	Label string
	Plan  *collector.TourPlan
	Radio radio.Model
	net   *wsn.Network
}

// NewLossyMobile wraps a tour plan with the link model. The model must
// pass radio.Model.Validate: a negative retry budget would make every
// upload free, and a non-positive width makes the PRR curve NaN.
func NewLossyMobile(label string, nw *wsn.Network, plan *collector.TourPlan, rm radio.Model) (*LossyMobile, error) {
	if err := rm.Validate(); err != nil {
		return nil, fmt.Errorf("sim: lossy scheme %q: %w", label, err)
	}
	return &LossyMobile{Label: label, Plan: plan, Radio: rm, net: nw}, nil
}

// Name implements Scheme.
func (m *LossyMobile) Name() string { return m.Label }

// assigned returns the number of sensors known to both the plan and the
// network. Clamping every per-sensor loop to it keeps a malformed plan
// (wrong UploadAt arity) from indexing out of bounds; the shortfall is
// surfaced through Unserved instead of a panic or a silent skip.
func (m *LossyMobile) assigned() int {
	n := len(m.Plan.UploadAt)
	if m.net.N() < n {
		n = m.net.N()
	}
	return n
}

// Unserved returns how many sensors get no valid upload this round:
// sensors the plan strands (UploadAt = -1 or a bogus stop index) plus any
// sensors the plan does not cover at all.
func (m *LossyMobile) Unserved() int {
	u := 0
	for i := 0; i < m.assigned(); i++ {
		if s := m.Plan.UploadAt[i]; s < 0 || s >= len(m.Plan.Stops) {
			u++
		}
	}
	if extra := m.net.N() - len(m.Plan.UploadAt); extra > 0 {
		u += extra
	}
	return u
}

// ChargeRound implements Scheme: expected attempts × per-attempt cost.
// Sensors without a valid upload stop spend nothing — they are counted by
// Unserved, not silently dropped from the energy story.
func (m *LossyMobile) ChargeRound(led *energy.Ledger) {
	r := m.net.Range
	for i := 0; i < m.assigned(); i++ {
		s := m.Plan.UploadAt[i]
		if s < 0 || s >= len(m.Plan.Stops) {
			continue
		}
		d := m.net.Nodes[i].Pos.Dist(m.Plan.Stops[s])
		led.Debit(i, led.Model.TxCost(d).Scale(m.Radio.ExpectedTx(d, r)))
	}
	led.EndRound()
}

// RoundTime implements Scheme (loss does not change the driving time;
// retransmissions hide inside the per-sensor upload slot).
func (m *LossyMobile) RoundTime(spec collector.Spec, relayDelay float64) float64 {
	return m.Plan.RoundTime(spec)
}

// TourLength implements Scheme.
func (m *LossyMobile) TourLength() geom.Meters { return m.Plan.Length() }

// Coverage implements Scheme.
func (m *LossyMobile) Coverage() float64 {
	if m.net.N() == 0 {
		return 1
	}
	return float64(m.Plan.Served()) / float64(m.net.N())
}

// DeliveryRatio returns the mean per-round probability that a sensor's
// packet reaches the collector within the retry budget.
func (m *LossyMobile) DeliveryRatio() float64 {
	if m.net.N() == 0 {
		return 1
	}
	sum := 0.0
	r := m.net.Range
	for i := 0; i < m.assigned(); i++ {
		s := m.Plan.UploadAt[i]
		if s < 0 || s >= len(m.Plan.Stops) {
			continue
		}
		sum += m.Radio.DeliveryProb(m.net.Nodes[i].Pos.Dist(m.Plan.Stops[s]), r)
	}
	return sum / float64(m.net.N())
}

// LossyStatic is the static-sink baseline under the same link model: every
// hop of every packet costs its expected attempts at the transmitter and
// the matching receptions at the receiver, and end-to-end delivery decays
// with chain length.
type LossyStatic struct {
	Plan  *routing.Plan
	Radio radio.Model
}

// NewLossyStatic wraps a routing plan with the link model, which must
// pass radio.Model.Validate as for NewLossyMobile.
func NewLossyStatic(plan *routing.Plan, rm radio.Model) (*LossyStatic, error) {
	if err := rm.Validate(); err != nil {
		return nil, fmt.Errorf("sim: lossy static scheme: %w", err)
	}
	return &LossyStatic{Plan: plan, Radio: rm}, nil
}

// Name implements Scheme.
func (s *LossyStatic) Name() string { return "static-sink-lossy" }

// hopDist returns node v's next-hop distance.
func (s *LossyStatic) hopDist(v int) float64 {
	nw := s.Plan.Net
	if s.Plan.NextHop[v] == routing.DirectUpload {
		return nw.Nodes[v].Pos.Dist(nw.Sink)
	}
	return nw.Nodes[v].Pos.Dist(nw.Nodes[s.Plan.NextHop[v]].Pos)
}

// ChargeRound implements Scheme: walk every packet's chain, debiting
// expected transmissions at each relay and the matching receptions at the
// next hop.
func (s *LossyStatic) ChargeRound(led *energy.Ledger) {
	nw := s.Plan.Net
	r := nw.Range
	for i := 0; i < nw.N(); i++ {
		if !s.Plan.Connected(i) {
			continue
		}
		for v := i; v != routing.DirectUpload; v = s.Plan.NextHop[v] {
			d := s.hopDist(v)
			etx := s.Radio.ExpectedTx(d, r)
			led.Debit(v, led.Model.TxCost(d).Scale(etx))
			if next := s.Plan.NextHop[v]; next != routing.DirectUpload {
				led.Debit(next, led.Model.RxCost().Scale(etx))
			}
		}
	}
	led.EndRound()
}

// RoundTime implements Scheme.
func (s *LossyStatic) RoundTime(spec collector.Spec, relayDelay float64) float64 {
	return NewStatic(s.Plan).RoundTime(spec, relayDelay)
}

// TourLength implements Scheme.
func (s *LossyStatic) TourLength() geom.Meters { return 0 }

// Coverage implements Scheme.
func (s *LossyStatic) Coverage() float64 { return s.Plan.CoverageFraction() }

// DeliveryRatio returns the mean end-to-end delivery probability over
// connected sensors (each hop gets its own retry budget).
func (s *LossyStatic) DeliveryRatio() float64 {
	nw := s.Plan.Net
	if nw.N() == 0 {
		return 1
	}
	sum := 0.0
	for i := 0; i < nw.N(); i++ {
		if !s.Plan.Connected(i) {
			continue
		}
		var hops []float64
		for v := i; v != routing.DirectUpload; v = s.Plan.NextHop[v] {
			hops = append(hops, s.hopDist(v))
		}
		sum += s.Radio.ChainDeliveryProb(hops, nw.Range)
	}
	return sum / float64(nw.N())
}
