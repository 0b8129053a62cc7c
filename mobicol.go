// Package mobicol is a library for planning and evaluating mobile-collector
// data gathering in wireless sensor networks, reproducing "Data gathering
// in wireless sensor networks with mobile collectors" (Ma & Yang, IPDPS
// 2008).
//
// An M-collector — a mobile robot or vehicle with a powerful transceiver —
// departs from the static data sink, pauses at planned polling points
// where nearby sensors upload their data in a single hop, and returns to
// the sink. The library solves the Single-Hop Data Gathering Problem
// (SHDGP): choose the polling points and their visiting order so the tour
// is as short as possible while every sensor is within transmission range
// of some stop.
//
// # Quick start
//
//	nw, err := mobicol.Deploy(mobicol.DeployConfig{N: 200, FieldSide: 200, Range: 30, Seed: 1})
//	sol, err := mobicol.PlanTour(nw)       // heuristic SHDGP planner
//	fmt.Println(sol.Length, sol.Stops())   // tour length (m), #polling points
//
// The package exposes, through type aliases, the full machinery in the
// internal packages: exact small-instance solving (PlanTourExact),
// multi-collector splitting (SplitTour, MinCollectors), the paper's
// comparison baselines (CLA sweep, straight-line mule, static sink,
// visit-every-sensor TSP), and lifetime/latency simulation.
package mobicol

import (
	"mobicol/internal/baselines"
	"mobicol/internal/collector"
	"mobicol/internal/cover"
	"mobicol/internal/energy"
	"mobicol/internal/geom"
	"mobicol/internal/mtsp"
	"mobicol/internal/obstacle"
	"mobicol/internal/radio"
	"mobicol/internal/routing"
	"mobicol/internal/schedule"
	"mobicol/internal/shdgp"
	"mobicol/internal/sim"
	"mobicol/internal/tsp"
	"mobicol/internal/wsn"
)

// Point is a planar location in metres.
type Point = geom.Point

// Meters is a dimensioned tour length or distance.
type Meters = geom.Meters

// MetersPerSecond is a dimensioned collector speed.
type MetersPerSecond = geom.MetersPerSecond

// Joules is a dimensioned energy quantity.
type Joules = energy.Joules

// Rounds is a dimensioned gathering-round count.
type Rounds = sim.Rounds

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Network is a deployed sensor field (sensors, sink, range, field).
type Network = wsn.Network

// DeployConfig parameterises random deployments.
type DeployConfig = wsn.Config

// Placement selects the spatial distribution of a deployment.
type Placement = wsn.Placement

// Deployment distributions.
const (
	Uniform    = wsn.Uniform
	GridJitter = wsn.GridJitter
	Clustered  = wsn.Clustered
	Ring       = wsn.Ring
	Corridor   = wsn.Corridor
)

// Deploy generates a seeded random deployment, rejecting invalid
// configurations (negative N, non-positive field side or range, unknown
// placement).
func Deploy(cfg DeployConfig) (*Network, error) { return wsn.Deploy(cfg) }

// MustDeploy is Deploy for known-good configurations; it panics where
// Deploy would return an error.
func MustDeploy(cfg DeployConfig) *Network { return wsn.MustDeploy(cfg) }

// NewNetwork builds a network from explicit sensor positions.
func NewNetwork(sensors []Point, sink Point, transmissionRange float64, fieldSide float64) *Network {
	return wsn.New(sensors, sink, transmissionRange, geom.Square(fieldSide))
}

// Problem is an SHDGP instance over a network.
type Problem = shdgp.Problem

// Solution is a planned single-hop gathering tour.
type Solution = shdgp.Solution

// PlannerOptions configures the heuristic planner.
type PlannerOptions = shdgp.PlannerOptions

// TourPlan is an executable tour: ordered stops plus the sensor-to-stop
// upload assignment.
type TourPlan = collector.TourPlan

// CollectorSpec is the M-collector's kinematic profile.
type CollectorSpec = collector.Spec

// CandidateStrategy selects polling-point candidate generation.
type CandidateStrategy = cover.CandidateStrategy

// Candidate strategies.
const (
	SensorSites   = cover.SensorSites
	FieldGrid     = cover.FieldGrid
	Intersections = cover.Intersections
)

// PlanTour runs the heuristic SHDGP planner with default options.
func PlanTour(nw *Network) (*Solution, error) {
	return shdgp.Plan(shdgp.NewProblem(nw), shdgp.DefaultPlannerOptions())
}

// PlanTourWith runs the heuristic planner with explicit options.
func PlanTourWith(p *Problem, opts PlannerOptions) (*Solution, error) {
	return shdgp.Plan(p, opts)
}

// DefaultPlannerOptions returns the planner configuration used throughout
// the experiments.
func DefaultPlannerOptions() PlannerOptions { return shdgp.DefaultPlannerOptions() }

// NewProblem wraps a network as an SHDGP instance.
func NewProblem(nw *Network) *Problem { return shdgp.NewProblem(nw) }

// PlanTourExact solves small instances to optimality (the paper's CPLEX
// role). See shdgp.ExactLimits for the instance-size guards.
func PlanTourExact(nw *Network) (*Solution, error) {
	return shdgp.PlanExact(shdgp.NewProblem(nw), shdgp.DefaultExactLimits())
}

// PlanVisitAll returns the visit-every-sensor tour (the d = 0 extreme).
func PlanVisitAll(nw *Network) (*Solution, error) {
	return shdgp.PlanVisitAll(shdgp.NewProblem(nw), tsp.DefaultOptions())
}

// PlanTourCapacitated plans a tour in which no polling point buffers more
// than cap sensors' packets (the paper's buffer-overflow concern).
func PlanTourCapacitated(nw *Network, cap int) (*Solution, error) {
	return shdgp.PlanCapacitated(shdgp.NewProblem(nw), cap, tsp.DefaultOptions())
}

// PlanTourSweep runs the alternative SPT-sweep heuristic (stops opened
// along a preorder walk of each component's shortest-path tree).
func PlanTourSweep(nw *Network) (*Solution, error) {
	return shdgp.PlanSweep(shdgp.NewProblem(nw), tsp.DefaultOptions())
}

// PlanTourHetero plans with per-sensor transmission ranges: sensor i must
// be within radii[i] metres of its upload stop.
func PlanTourHetero(nw *Network, radii []float64) (*Solution, error) {
	return shdgp.PlanHetero(nw, radii, tsp.DefaultOptions())
}

// MultiPlan is a set of concurrent sink-anchored sub-tours.
type MultiPlan = mtsp.MultiPlan

// MinCollectors covers the solution's stops with the fewest sub-tours of
// closed length at most bound.
func MinCollectors(nw *Network, sol *Solution, bound float64) (*MultiPlan, error) {
	return mtsp.MinCollectors(nw.Sink, sol.Plan.Stops, bound, tsp.DefaultOptions())
}

// SplitTour divides the solution's stops among exactly k collectors,
// minimising the longest sub-tour.
func SplitTour(nw *Network, sol *Solution, k int) (*MultiPlan, error) {
	return mtsp.MinMaxSplit(nw.Sink, sol.Plan.Stops, k, tsp.DefaultOptions())
}

// SubTourPlans converts a MultiPlan into per-collector executable plans.
func SubTourPlans(nw *Network, sol *Solution, mp *MultiPlan) ([]*TourPlan, error) {
	return mp.TourPlans(nw.Positions(), sol.Plan.UploadAt, sol.Plan.Stops)
}

// PlanCLA builds the covering-line-approximation baseline sweep.
func PlanCLA(nw *Network) (*TourPlan, error) { return baselines.PlanCLA(nw) }

// StraightLinePlan is the fixed-track data-mule baseline.
type StraightLinePlan = baselines.StraightLinePlan

// PlanStraightLine builds the straight-line baseline with the given number
// of parallel tracks.
func PlanStraightLine(nw *Network, tracks int) (*StraightLinePlan, error) {
	return baselines.PlanStraightLine(nw, tracks)
}

// RoutingPlan is the static-sink multi-hop baseline.
type RoutingPlan = routing.Plan

// PlanStaticSink builds shortest-path-tree routing toward the sink.
func PlanStaticSink(nw *Network) *RoutingPlan { return routing.BuildPlan(nw) }

// EnergyModel is the first-order radio model.
type EnergyModel = energy.Model

// DefaultEnergyModel returns the canonical parameter set.
func DefaultEnergyModel() EnergyModel { return energy.DefaultModel() }

// Scheme is a data-gathering scheme under simulation.
type Scheme = sim.Scheme

// LifetimeResult summarises a lifetime simulation.
type LifetimeResult = sim.LifetimeResult

// MobileScheme adapts a tour plan for simulation.
func MobileScheme(name string, nw *Network, plan *TourPlan) Scheme {
	return sim.NewMobile(name, nw, plan)
}

// StaticScheme adapts a routing plan for simulation.
func StaticScheme(plan *RoutingPlan) Scheme { return sim.NewStatic(plan) }

// StraightLineScheme adapts a straight-line plan for simulation.
func StraightLineScheme(plan *StraightLinePlan) Scheme { return sim.NewStraightLine(plan) }

// RunLifetime simulates gathering rounds until the first sensor death.
func RunLifetime(s Scheme, n int, model EnergyModel, maxRounds int) (*LifetimeResult, error) {
	return sim.RunLifetime(s, n, model, maxRounds)
}

// AdaptiveResult describes degradation past the first death.
type AdaptiveResult = sim.AdaptiveResult

// RunAdaptiveMobile simulates mobile gathering with re-planning after
// every sensor death, to the half-service life.
func RunAdaptiveMobile(nw *Network, model EnergyModel, maxRounds int) (*AdaptiveResult, error) {
	return sim.RunAdaptiveMobile(nw, model, maxRounds)
}

// RunAdaptiveStatic simulates the static sink with routing rebuilt after
// every death; stranded survivors idle unserved.
func RunAdaptiveStatic(nw *Network, model EnergyModel, maxRounds int) (*AdaptiveResult, error) {
	return sim.RunAdaptiveStatic(nw, model, maxRounds)
}

// PlanDiverse returns up to k structurally different plans for rotation
// (round-robin plan alternation that averages per-sensor upload cost).
func PlanDiverse(nw *Network, k int) ([]*Solution, error) {
	return shdgp.PlanDiverse(shdgp.NewProblem(nw), k, tsp.DefaultOptions())
}

// RotationScheme alternates plans round-robin for lifetime simulation.
func RotationScheme(name string, nw *Network, plans []*TourPlan) (Scheme, error) {
	return sim.NewRotation(name, nw, plans)
}

// DefaultCollectorSpec is the paper's 1 m/s collector.
func DefaultCollectorSpec() CollectorSpec { return collector.DefaultSpec() }

// RoundLatency returns one round's collection latency in seconds for the
// scheme, given the collector profile and per-hop relay delay.
func RoundLatency(s Scheme, spec CollectorSpec, relayDelaySeconds float64) float64 {
	return sim.MeasureLatency(s, spec, relayDelaySeconds).Seconds
}

// ObstacleCourse is a set of movement-blocking polygons over the field.
type ObstacleCourse = obstacle.Course

// ObstaclePolygon is one simple polygon obstacle (counter-clockwise
// vertices).
type ObstaclePolygon = obstacle.Polygon

// ObstacleTour is an obstacle-aware gathering tour with its driven
// waypoint polyline.
type ObstacleTour = obstacle.Tour

// NewObstacleCourse validates and wraps obstacles.
func NewObstacleCourse(obs ...ObstaclePolygon) (*ObstacleCourse, error) {
	return obstacle.NewCourse(obs...)
}

// RectObstacle builds an axis-aligned rectangular obstacle from two
// opposite corners.
func RectObstacle(a, b Point) ObstaclePolygon {
	return obstacle.Rectangle(geom.NewRect(a, b))
}

// PlanTourAround plans a single-hop gathering tour that threads the
// collector's path around the obstacles (which block movement, not radio).
func PlanTourAround(nw *Network, course *ObstacleCourse) (*ObstacleTour, error) {
	return obstacle.PlanTour(nw, course)
}

// DeployAroundObstacles generates a deployment whose sensors avoid the
// obstacle interiors (blocked draws are deterministically resampled).
func DeployAroundObstacles(cfg DeployConfig, course *ObstacleCourse) (*Network, error) {
	return obstacle.DeployAround(cfg, course)
}

// RadioModel is a lossy-link model (PRR curve + ARQ budget).
type RadioModel = radio.Model

// PerfectRadio returns the paper's implicit loss-free link model.
func PerfectRadio() RadioModel { return radio.Perfect() }

// DefaultRadio returns a typical transitional-region link model.
func DefaultRadio() RadioModel { return radio.Default() }

// LossyMobileScheme adapts a tour plan with lossy uploads for simulation.
// It returns an error when rm fails RadioModel.Validate.
func LossyMobileScheme(name string, nw *Network, plan *TourPlan, rm RadioModel) (*sim.LossyMobile, error) {
	return sim.NewLossyMobile(name, nw, plan, rm)
}

// LossyStaticScheme adapts static-sink routing with lossy relays. It
// returns an error when rm fails RadioModel.Validate.
func LossyStaticScheme(plan *RoutingPlan, rm RadioModel) (*sim.LossyStatic, error) {
	return sim.NewLossyStatic(plan, rm)
}

// StopDemand is one polling point's data-generation and buffer profile.
type StopDemand = schedule.Demand

// VisitPolicy selects the collector's visiting order under deadlines.
type VisitPolicy = schedule.Policy

// Visit policies.
const (
	VisitCyclic = schedule.Cyclic
	VisitEDF    = schedule.EDF
)

// ScheduleResult summarises a deadline-driven visiting simulation.
type ScheduleResult = schedule.RunResult

// StopDemands derives per-stop demands from a plan: every sensor
// contributes ratePerSensor packets/s; every stop buffers bufferPackets.
func StopDemands(plan *TourPlan, ratePerSensor, bufferPackets float64) []StopDemand {
	return schedule.DemandsFromPlan(plan, ratePerSensor, bufferPackets)
}

// CyclicTourFeasible reports whether the cyclic tour revisits every stop
// before its buffer overflows.
func CyclicTourFeasible(plan *TourPlan, demands []StopDemand, spec CollectorSpec) bool {
	return schedule.CyclicFeasible(plan, demands, spec)
}

// MinCollectorSpeed returns the slowest feasible cyclic-tour speed.
func MinCollectorSpeed(plan *TourPlan, demands []StopDemand, uploadTime float64) (MetersPerSecond, error) {
	return schedule.MinSpeed(plan, demands, uploadTime)
}

// RunSchedule simulates deadline-driven visiting over the horizon.
func RunSchedule(plan *TourPlan, demands []StopDemand, spec CollectorSpec, policy VisitPolicy, horizonSeconds float64) (*ScheduleResult, error) {
	return schedule.Run(plan, demands, spec, policy, horizonSeconds)
}

// RoundTrace is the packet-level outcome of one simulated gathering round.
type RoundTrace = sim.RoundTrace

// SimulateMobileRound replays one collector round at packet granularity:
// per-sensor pickup times and per-stop peak buffer occupancy.
func SimulateMobileRound(nw *Network, plan *TourPlan, spec CollectorSpec) (*RoundTrace, error) {
	return sim.DESMobileRound(nw, plan, spec)
}

// SimulateStaticRound replays one static-sink round with store-and-forward
// queueing at the relays, exposing the congestion the closed-form
// hop-count latency model misses.
func SimulateStaticRound(plan *RoutingPlan, perHopDelaySeconds float64) (*RoundTrace, error) {
	return sim.DESStaticRound(plan, perHopDelaySeconds)
}
