package sim

import (
	"context"
	"fmt"

	"mobicol/internal/check"
	"mobicol/internal/energy"
	"mobicol/internal/geom"
	"mobicol/internal/routing"
	"mobicol/internal/shdgp"
	"mobicol/internal/wsn"
)

// AdaptiveResult describes degradation beyond the first death: the paper's
// lifetime metric stops at the first depleted sensor, but a deployed
// network keeps running — the question is how gracefully each scheme
// degrades when the planner may re-plan around the dead.
type AdaptiveResult struct {
	Scheme string
	// FirstDeath is the round of the first sensor death (-1 if none).
	FirstDeath int
	// HalfLife is the half-service life: the round at which fewer than
	// half the sensors are still alive *and having their data gathered*
	// (maxRounds when the horizon ends first). Counting deaths alone
	// would flatter the static sink: sensors stranded by dead relays
	// stop transmitting, idle forever, and never "die" — while
	// contributing nothing.
	HalfLife int
	// Rounds actually simulated.
	Rounds int
	// ServedAtHalf is the fraction of then-alive sensors whose data was
	// still being gathered at the half-life round. Mobile re-planning
	// keeps this at 1; a static sink strands survivors as relays die.
	ServedAtHalf float64
	// Replans counts plan rebuilds.
	Replans int
}

// planChecked runs the SHDGP planner over a survivor subnetwork and
// verifies the result against the single-hop invariants before the
// simulation charges a single joule from it. A replan that strands a
// survivor is a planner bug, and it fails the run loudly instead of
// silently skipping the stranded sensor.
func planChecked(sub *wsn.Network) (*shdgp.Solution, error) {
	sol, err := shdgp.Plan(context.Background(), shdgp.NewProblem(sub), shdgp.DefaultPlannerOptions())
	if err != nil {
		return nil, err
	}
	if err := check.Plan(sub, sol.Plan, check.Options{}); err != nil {
		return nil, fmt.Errorf("sim: adaptive replan over %d survivors: %w", sub.N(), err)
	}
	return sol, nil
}

// aliveSubnetwork builds a network over the alive sensors, returning the
// mapping from sub-indices to original indices.
func aliveSubnetwork(nw *wsn.Network, alive []bool) (*wsn.Network, []int) {
	var pts []geom.Point
	var origIdx []int
	for i, node := range nw.Nodes {
		if alive[i] {
			pts = append(pts, node.Pos)
			origIdx = append(origIdx, i)
		}
	}
	return wsn.New(pts, nw.Sink, nw.Range, nw.Field), origIdx
}

// RunAdaptiveMobile simulates the mobile single-hop scheme with
// re-planning: after every death the SHDGP planner runs again over the
// survivors, so the tour keeps shrinking and every living sensor stays
// served. Returns the degradation summary.
func RunAdaptiveMobile(nw *wsn.Network, model energy.Model, maxRounds int) (*AdaptiveResult, error) {
	if maxRounds <= 0 {
		return nil, fmt.Errorf("sim: non-positive horizon")
	}
	n := nw.N()
	led := energy.NewLedger(n, model)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	res := &AdaptiveResult{Scheme: "mobile-adaptive", FirstDeath: -1, HalfLife: maxRounds}
	sub, origIdx := aliveSubnetwork(nw, alive)
	sol, err := planChecked(sub)
	if err != nil {
		return nil, err
	}
	res.Replans = 1
	aliveCount := n
	for round := 0; round < maxRounds && aliveCount > n/2; round++ {
		res.Rounds = round + 1
		for subIdx, stop := range sol.Plan.UploadAt {
			if stop < 0 {
				continue
			}
			i := origIdx[subIdx]
			led.ChargeTx(i, sub.Nodes[subIdx].Pos.Dist(sol.Plan.Stops[stop]))
		}
		led.EndRound()
		died := false
		for i := 0; i < n; i++ {
			if alive[i] && !led.Alive(i) {
				alive[i] = false
				aliveCount--
				died = true
			}
		}
		if died {
			if res.FirstDeath < 0 {
				res.FirstDeath = round + 1
			}
			if aliveCount <= n/2 {
				res.HalfLife = round + 1
				break
			}
			sub, origIdx = aliveSubnetwork(nw, alive)
			sol, err = planChecked(sub)
			if err != nil {
				return nil, err
			}
			res.Replans++
		}
	}
	// Re-planning should serve every survivor; measure it from the final
	// plan rather than asserting it. Sensors the plan strands (stop < 0)
	// count as unserved — exactly what the oracle would reject.
	served := 0
	for subIdx, stop := range sol.Plan.UploadAt {
		if stop >= 0 && alive[origIdx[subIdx]] {
			served++
		}
	}
	if aliveCount > 0 {
		res.ServedAtHalf = float64(served) / float64(aliveCount)
	} else {
		res.ServedAtHalf = 1
	}
	return res, nil
}

// RunAdaptiveStatic simulates the static sink with routing rebuilt over
// the survivors after every death. Survivors disconnected from the sink
// stop transmitting (their data is simply lost), which is exactly the
// degradation mode mobility avoids.
func RunAdaptiveStatic(nw *wsn.Network, model energy.Model, maxRounds int) (*AdaptiveResult, error) {
	if maxRounds <= 0 {
		return nil, fmt.Errorf("sim: non-positive horizon")
	}
	n := nw.N()
	led := energy.NewLedger(n, model)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	res := &AdaptiveResult{Scheme: "static-adaptive", FirstDeath: -1, HalfLife: maxRounds}
	sub, origIdx := aliveSubnetwork(nw, alive)
	plan := routing.BuildPlan(sub)
	res.Replans = 1
	aliveCount := n
	servedCount := func() int {
		c := 0
		for subIdx := 0; subIdx < sub.N(); subIdx++ {
			if plan.Connected(subIdx) {
				c++
			}
		}
		return c
	}
	servedFrac := func() float64 {
		if sub.N() == 0 {
			return 0
		}
		return plan.CoverageFraction()
	}
	for round := 0; round < maxRounds && servedCount() > n/2; round++ {
		res.Rounds = round + 1
		for subIdx := 0; subIdx < sub.N(); subIdx++ {
			if !plan.Connected(subIdx) {
				continue
			}
			i := origIdx[subIdx]
			var d float64
			if plan.NextHop[subIdx] == routing.DirectUpload {
				d = sub.Nodes[subIdx].Pos.Dist(sub.Sink)
			} else {
				d = sub.Nodes[subIdx].Pos.Dist(sub.Nodes[plan.NextHop[subIdx]].Pos)
			}
			for t := 0; t < plan.Load[subIdx]; t++ {
				led.ChargeTx(i, d)
			}
			for r := 0; r < plan.Load[subIdx]-1; r++ {
				led.ChargeRx(i)
			}
		}
		led.EndRound()
		died := false
		for i := 0; i < n; i++ {
			if alive[i] && !led.Alive(i) {
				alive[i] = false
				aliveCount--
				died = true
			}
		}
		if died {
			if res.FirstDeath < 0 {
				res.FirstDeath = round + 1
			}
			sub, origIdx = aliveSubnetwork(nw, alive)
			plan = routing.BuildPlan(sub)
			res.Replans++
			if servedCount() <= n/2 {
				res.HalfLife = round + 1
				break
			}
		}
	}
	res.ServedAtHalf = servedFrac()
	return res, nil
}
