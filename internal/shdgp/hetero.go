package shdgp

import (
	"fmt"

	"mobicol/internal/cover"
	"mobicol/internal/geom"
	"mobicol/internal/tsp"
	"mobicol/internal/wsn"
)

// PlanHetero plans a single-hop gathering tour for sensors with
// per-sensor transmission ranges (mixed hardware, or radios derated as
// batteries sag). Sensor i can upload to a stop within radii[i] metres;
// the candidate set is the sensor sites (every sensor reaches a stop at
// its own position, so the instance is always feasible). The network's
// nominal Range is ignored for coverage.
func PlanHetero(nw *wsn.Network, radii []float64) (*Solution, error) {
	if len(radii) != nw.N() {
		return nil, fmt.Errorf("shdgp: %d radii for %d sensors", len(radii), nw.N())
	}
	if nw.N() == 0 {
		return nil, fmt.Errorf("shdgp: empty network")
	}
	sensors := nw.Positions()
	inst := cover.NewInstanceRadii(sensors, radii, sensors)
	if err := inst.Err(); err != nil {
		return nil, err
	}
	chosen, err := inst.Greedy(nw.Sink)
	if err != nil {
		return nil, err
	}
	p := NewProblem(nw)
	sol := buildSolution(p, sensors, inst, chosen, tsp.Solve, tsp.DefaultOptions(), "shdg-hetero")
	return sol, nil
}

// ValidateHetero checks the per-sensor single-hop guarantee of a
// heterogeneous-range solution.
func (s *Solution) ValidateHetero(sensors []geom.Point, radii []float64) error {
	if len(s.Plan.UploadAt) != len(sensors) || len(radii) != len(sensors) {
		return fmt.Errorf("shdgp: size mismatch validating heterogeneous plan")
	}
	for i, stop := range s.Plan.UploadAt {
		if stop < 0 {
			return fmt.Errorf("shdgp: sensor %d unserved", i)
		}
		if d := sensors[i].Dist(s.Plan.Stops[stop]); d > radii[i]+geom.Eps {
			return fmt.Errorf("shdgp: sensor %d uploads over %.2fm, its range is %.2fm", i, d, radii[i])
		}
	}
	return nil
}
