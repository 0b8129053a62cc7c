// Fixture tripping all nine analyzers in one file. The test loads it
// under import path mobicol/internal/sim, which puts the determinism
// map-iteration rule and the nopanic internal/ scope in force, and
// asserts the exact (line, analyzer) sequence: one finding per analyzer,
// positions strictly increasing. A redundant conversion, a par callee's
// package-level write and an overwritten error stay as no-finding cases.
// The Planner/Scenario pair at the bottom activates the seam analyzers
// (purecheck, ctxflow) the same way the real engine package does.
package fixture

import "context"

// Meters mirrors geom.Meters for the unitcheck dimension rules.
type Meters float64

// Joules mirrors energy.Joules.
type Joules float64

var hits int // globalvar

func mapOrder(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m { // determinism
		total += v
	}
	return total
}

func exactCompare(a, b float64) bool {
	return a == b // floateq
}

func mustPositive(x float64) float64 {
	if x <= 0 {
		panic("not positive") // nopanic
	}
	return x
}

func fallible() error { return nil }

func dropError() {
	fallible() // errcheck
}

func mixUnits(tour Meters) Joules {
	return Joules(tour) // unitcheck
}

func redundant(x float64) float64 {
	return float64(x) // no finding: redundant conversion
}

// Pool mirrors par.Pool.
type Pool struct{}

// ForEach mirrors the par fan-out entry point.
func (p *Pool) ForEach(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

//mdglint:hotpath
func hotAlloc(n int) []int {
	return make([]int, n) // alloccheck
}

func parShared(p *Pool, n int) {
	p.ForEach(n, func(i int) {
		bump(i)
	})
}

func bump(i int) {
	hits += i // no finding: shared write from a par callee
}

func overwriteErr() error {
	err := fallible() // no finding: overwritten error
	err = fallible()
	return err
}

// Scenario mirrors engine.Scenario for the seam-analyzer root discovery.
type Scenario struct{ Nodes []int }

// Planner mirrors the engine seam contract.
type Planner interface {
	Plan(ctx context.Context, sc Scenario) error
}

type crossPlanner struct{}

// Plan trips the two seam analyzers on consecutive lines.
func (p *crossPlanner) Plan(ctx context.Context, sc Scenario) error {
	sc.Nodes[0] = 1            // purecheck
	bg := context.Background() // ctxflow
	_ = bg
	return nil
}
