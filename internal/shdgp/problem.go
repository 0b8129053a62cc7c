// Package shdgp implements the paper's core contribution: the Single-Hop
// Data Gathering Problem and its planners.
//
// Problem statement (Ma & Yang, IPDPS 2008). An M-collector departs from
// the static data sink, pauses at a sequence of stop positions ("polling
// points"), and returns to the sink. While paused at a stop it polls the
// sensors within transmission range, each of which uploads its data in a
// single hop. The SHDGP asks for the stop set and visiting order that
// minimise the total tour length subject to every sensor being within
// range of at least one stop. Minimising tour length minimises the
// dominant term of data-collection latency, since the collector moves at
// ~1 m/s while radio transfers are near-instant by comparison.
//
// The problem jointly contains geometric disk cover (choose the stops) and
// the Euclidean TSP (order them), and is NP-hard; the package provides the
// heuristic planner used at scale plus an exact solver for the small
// instances the paper certifies against CPLEX.
package shdgp

import (
	"mobicol/internal/check"
	"mobicol/internal/collector"
	"mobicol/internal/cover"
	"mobicol/internal/geom"
	"mobicol/internal/par"
	"mobicol/internal/tsp"
	"mobicol/internal/wsn"
)

// Problem is one SHDGP instance.
type Problem struct {
	Net *wsn.Network
	// Strategy selects candidate stop generation (default SensorSites).
	Strategy cover.CandidateStrategy
	// GridSpacing applies to the FieldGrid strategy (default 20 m, the
	// paper's evaluation setting).
	GridSpacing float64
	// Pool bounds the parallelism the planners may use. The zero value
	// runs sequentially; any pool size produces byte-identical plans.
	Pool par.Pool
}

// NewProblem wraps a network with default candidate generation.
func NewProblem(nw *wsn.Network) *Problem { return &Problem{Net: nw} }

// Instance materialises the covering instance for the problem. It fails
// when the candidate strategy is unknown or the instance is infeasible
// (some sensor out of range of every candidate).
//
//mdglint:allow-alloc(instance materialisation runs once per plan and owns the candidate/cover storage)
func (p *Problem) Instance() (*cover.Instance, error) {
	sensors := p.Net.Positions()
	cands, err := cover.GenerateCandidates(sensors, p.Net.Field, p.Net.Range, p.Strategy, p.GridSpacing)
	if err != nil {
		return nil, err
	}
	inst := cover.NewInstancePool(sensors, cands, p.Net.Range, p.Pool)
	if err := inst.Err(); err != nil {
		return nil, err
	}
	return inst, nil
}

// Solution is a planned single-hop gathering tour.
type Solution struct {
	// Plan is the executable tour: ordered stops (sink excluded) plus
	// the sensor-to-stop assignment.
	Plan *collector.TourPlan
	// Length is the closed tour length in metres.
	Length geom.Meters
	// Exact is true when PlanExact's search closed within its limits: no
	// cover of the dominance-pruned candidates is shorter than the tour.
	// The tour is the shorter of that pruned optimum and the heuristic
	// incumbent, which plans over every candidate, so Exact does not
	// certify it optimal over the unpruned candidates.
	Exact bool
	// Algorithm names the planner that produced the solution.
	Algorithm string
	// Stats summarises the covering phase for reporting.
	Stats PlanStats
}

// PlanStats carries the candidate-generation and cover statistics the
// CLIs report alongside the tour: how large the instance was, how many
// stops the cover phase picked before refinement, and how loaded the
// busiest stop is (the buffer-sizing number from the paper's single-hop
// argument).
type PlanStats struct {
	// Candidates is the number of candidate stop positions that cover
	// at least one sensor.
	Candidates int
	// Universe is the number of sensors to cover.
	Universe int
	// CoverStops is the cover size before refinement (== final stop
	// count when refinement is off or changed nothing).
	CoverStops int
	// MaxSensorsPerStop is the largest number of sensors assigned to
	// upload at a single stop.
	MaxSensorsPerStop int
}

// Stops returns the number of polling points (excluding the sink).
func (s *Solution) Stops() int { return len(s.Plan.Stops) }

// Validate checks the solution against the plan oracle (check.Plan) and
// its recorded length against the tour geometry (check.RecordedLength).
func (s *Solution) Validate(p *Problem) error {
	if err := check.Plan(p.Net, s.Plan, check.Options{}); err != nil {
		return err
	}
	return check.RecordedLength(s.Plan, s.Length)
}

// orderStops orders sink + the chosen stops with order — tsp.Solve, or
// polish to start from chosen's own order — and rotates the sink
// first. It returns the stops in visiting order and orderPos, where
// orderPos[i] is the position of chosen[i] in that order.
func orderStops(p *Problem, inst *cover.Instance, chosen []int, order func([]geom.Point, tsp.Options) tsp.Tour, opts tsp.Options) (stops []geom.Point, orderPos []int) {
	// Tour points: index 0 is the sink, 1..k are the stops.
	pts := make([]geom.Point, 0, len(chosen)+1)
	pts = append(pts, p.Net.Sink)
	for _, c := range chosen {
		pts = append(pts, inst.Candidates[c])
	}
	tour := order(pts, opts)
	tour.RotateTo(0)
	stops = make([]geom.Point, 0, len(chosen))
	orderPos = make([]int, len(chosen))
	for _, idx := range tour[1:] {
		orderPos[idx-1] = len(stops)
		stops = append(stops, pts[idx])
	}
	return stops, orderPos
}

// buildSolution assembles a Solution from chosen candidate indices: order
// the stops (orderStops with order and opts) and assign each sensor to
// its nearest chosen stop.
//
//mdglint:allow-alloc(solution assembly runs once per plan and owns the tour plan it returns)
func buildSolution(p *Problem, inst *cover.Instance, chosen []int, order func([]geom.Point, tsp.Options) tsp.Tour, opts tsp.Options, algorithm string) *Solution {
	sensors := p.Net.Positions()
	orderedStops, orderPos := orderStops(p, inst, chosen, order, opts)
	rawAssign := inst.Assign(sensors, chosen)
	uploadAt := make([]int, len(sensors))
	for i, a := range rawAssign {
		if a < 0 {
			uploadAt[i] = -1
		} else {
			uploadAt[i] = orderPos[a]
		}
	}
	plan := &collector.TourPlan{Sink: p.Net.Sink, Stops: orderedStops, UploadAt: uploadAt}
	perStop := make([]int, len(orderedStops))
	maxPerStop := 0
	for _, s := range uploadAt {
		if s >= 0 {
			perStop[s]++
			if perStop[s] > maxPerStop {
				maxPerStop = perStop[s]
			}
		}
	}
	return &Solution{
		Plan:      plan,
		Length:    plan.Length(),
		Algorithm: algorithm,
		Stats: PlanStats{
			Candidates:        len(inst.Candidates),
			Universe:          inst.Universe,
			CoverStops:        len(chosen),
			MaxSensorsPerStop: maxPerStop,
		},
	}
}
