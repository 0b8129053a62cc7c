// Package check is the repository's invariant-verification subsystem. It
// turns the paper's implicit correctness contract — every sensor uploads in
// a single hop to some stop on a closed tour anchored at the sink — into
// executable oracles that are independent of the planners that are supposed
// to satisfy them.
//
// The package deliberately sits below the planners in the import graph
// (it knows about networks, tour plans, and energy ledgers, but not about
// internal/shdgp or internal/bench), so planner packages and their
// in-package tests can call the oracles without import cycles. The
// property-based, differential, and acceptance suites that exercise the
// planners against these oracles live in this package's external tests.
//
// Three surfaces:
//
//   - Plan verifies a collector.TourPlan against the deployment it claims
//     to serve: assignment arity, stop-index bounds, full single-hop
//     coverage at the assigned stop, finite geometry, and closure at the
//     network's sink.
//   - Ledger verifies energy conservation across simulation rounds: spent
//     plus residual equals the initial battery for every node, residuals
//     stay within [0, battery], and death bookkeeping is consistent.
//   - Scenarios (scenario.go) generates the deterministic randomized
//     deployments — uniform, clustered, collinear, coincident — that the
//     property suites sweep.
package check

import (
	"fmt"
	"math"
	"strings"

	"mobicol/internal/collector"
	"mobicol/internal/energy"
	"mobicol/internal/geom"
	"mobicol/internal/wsn"
)

// maxReported bounds how many violations one error message spells out;
// the total count is always reported.
const maxReported = 8

// Options tunes the plan oracle.
type Options struct {
	// UploadDist overrides the per-sensor single-hop distance used for
	// the range check. The CLA baseline needs this: its recorded stop is
	// a line endpoint, but the collector actually passes the sensor's
	// projection, so the effective upload distance is the perpendicular
	// distance to the sweep line.
	UploadDist func(sensor int) float64
}

// violations accumulates invariant failures, keeping the first
// maxReported details and an exact total.
type violations struct {
	total   int
	details []string
}

func (v *violations) addf(format string, args ...any) {
	v.total++
	if len(v.details) < maxReported {
		v.details = append(v.details, fmt.Sprintf(format, args...))
	}
}

func (v *violations) err(subject string) error {
	if v.total == 0 {
		return nil
	}
	suffix := ""
	if v.total > len(v.details) {
		suffix = fmt.Sprintf("\n  ... and %d more", v.total-len(v.details))
	}
	return fmt.Errorf("check: %s violates %d invariant(s):\n  - %s%s",
		subject, v.total, strings.Join(v.details, "\n  - "), suffix)
}

func finite(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Plan verifies tp against the deployment nw. It checks, in order:
//
//   - assignment-arity: exactly one UploadAt entry per sensor;
//   - finite-geometry: sink and every stop have finite coordinates, and
//     the closed tour length is finite and non-negative;
//   - sink-anchor: the tour starts and ends at the network's sink;
//   - stop-index: every assignment points at a real stop (or -1);
//   - coverage: every sensor has an upload stop;
//   - single-hop: every served sensor is within transmission range of its
//     assigned stop (or of its UploadDist override).
//
// All violations are gathered into a single error; nil means the plan
// satisfies the full contract.
func Plan(nw *wsn.Network, tp *collector.TourPlan, opts Options) error {
	if nw == nil {
		return fmt.Errorf("check: nil network")
	}
	if tp == nil {
		return fmt.Errorf("check: nil plan")
	}
	var v violations

	if len(tp.UploadAt) != nw.N() {
		v.addf("assignment-arity: %d UploadAt entries for %d sensors", len(tp.UploadAt), nw.N())
	}
	if !finite(tp.Sink) {
		v.addf("finite-geometry: sink %v is not finite", tp.Sink)
	}
	for i, s := range tp.Stops {
		if !finite(s) {
			v.addf("finite-geometry: stop %d at %v is not finite", i, s)
		}
	}
	//mdglint:ignore unitcheck math boundary: finiteness predicates take raw float64
	if l := float64(tp.Length()); math.IsNaN(l) || math.IsInf(l, 0) || l < 0 {
		v.addf("finite-geometry: closed tour length %v", l)
	}
	if !tp.Sink.Eq(nw.Sink) {
		v.addf("sink-anchor: tour anchored at %v, network sink is %v", tp.Sink, nw.Sink)
	}
	for i := 0; i < len(tp.UploadAt) && i < nw.N(); i++ {
		stop := tp.UploadAt[i]
		switch {
		case stop < -1 || stop >= len(tp.Stops):
			v.addf("stop-index: sensor %d assigned to stop %d of %d", i, stop, len(tp.Stops))
		case stop == -1:
			v.addf("coverage: sensor %d has no upload stop", i)
		default:
			d := nw.Nodes[i].Pos.Dist(tp.Stops[stop])
			if opts.UploadDist != nil {
				d = opts.UploadDist(i)
			}
			if math.IsNaN(d) || d > nw.Range+geom.Eps {
				v.addf("single-hop: sensor %d is %.4fm from its stop, range %.4fm", i, d, nw.Range)
			}
		}
	}
	return v.err("plan")
}

// RecordedLength verifies a recorded tour length (a Solution.Length field,
// a serialized length_m) against the plan's actual geometry within a
// relative tolerance.
func RecordedLength(tp *collector.TourPlan, recorded geom.Meters) error {
	got := tp.Length()
	//mdglint:ignore unitcheck math boundary: the relative-tolerance comparison runs on raw magnitudes
	if math.Abs(float64(got-recorded)) > 1e-6*(1+math.Abs(float64(got))) {
		return fmt.Errorf("check: recorded tour length %.6f, geometry says %.6f", recorded, got)
	}
	return nil
}

// Ledger verifies energy conservation on a simulated ledger:
//
//   - conservation: for every node, energy spent plus residual equals the
//     initial battery within tolerance;
//   - bounds: residuals stay within [0, battery];
//   - death bookkeeping: dead nodes hold exactly zero residual, and the
//     first-death round is consistent with the alive count;
//   - rounds: the ledger completed wantRounds rounds (skipped when
//     wantRounds < 0).
func Ledger(led *energy.Ledger, wantRounds int) error {
	if led == nil {
		return fmt.Errorf("check: nil ledger")
	}
	var v violations
	tol := (1 + led.Model.InitialJ).Scale(1e-6)
	for i := 0; i < led.N(); i++ {
		res, spent := led.Residual[i], led.SpentJ(i)
		//mdglint:ignore unitcheck math boundary: NaN predicate takes raw float64
		if math.IsNaN(float64(res)) || res < 0 {
			v.addf("bounds: node %d residual %v", i, res)
		}
		if res > led.Model.InitialJ+tol {
			v.addf("bounds: node %d residual %v exceeds battery %v", i, res, led.Model.InitialJ)
		}
		if (res + spent - led.Model.InitialJ).Abs() > tol {
			v.addf("conservation: node %d residual %v + spent %v != battery %v",
				i, res, spent, led.Model.InitialJ)
		}
		if !led.Alive(i) && res > 0 {
			v.addf("death: node %d is dead with residual %v", i, res)
		}
	}
	dead := led.N() - led.AliveCount()
	if first := led.FirstDeath(); (first >= 0) != (dead > 0) {
		v.addf("death: first death round %d with %d dead nodes", first, dead)
	} else if first >= led.Round() && dead > 0 {
		v.addf("death: first death recorded in round %d but only %d rounds completed", first, led.Round())
	}
	if wantRounds >= 0 && led.Round() != wantRounds {
		v.addf("rounds: ledger completed %d rounds, simulation reported %d", led.Round(), wantRounds)
	}
	return v.err("ledger")
}
