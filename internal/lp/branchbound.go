package lp

import (
	"errors"
	"math"
)

// IntSolution is a 0/1 integer solution.
type IntSolution struct {
	Status Status
	X      []int
	Obj    float64
	Exact  bool // false when the node cap tripped before the tree closed
}

// SolveBinary solves the model with every variable restricted to {0, 1}
// by LP-based branch and bound: solve the relaxation (with x <= 1 bounds
// added), branch on the most fractional variable, explore depth-first,
// and prune nodes whose relaxation bound cannot beat the incumbent.
// maxNodes caps the search (0 = unlimited).
func (m *Model) SolveBinary(maxNodes int) (*IntSolution, error) {
	n := m.NumVars
	fixed := make([]int, n) // -1 free, 0 fixed to 0, 1 fixed to 1
	for i := range fixed {
		fixed[i] = -1
	}
	best := &IntSolution{Status: Infeasible, Obj: math.Inf(1), Exact: true}
	nodes := 0

	var rec func() error
	rec = func() error {
		nodes++
		if maxNodes > 0 && nodes > maxNodes {
			best.Exact = false
			return nil
		}
		sol, err := m.solveFixed(fixed)
		if err != nil {
			return err
		}
		switch sol.Status {
		case Infeasible:
			return nil
		case Unbounded:
			return errors.New("lp: binary relaxation unbounded (missing bounds?)")
		}
		if sol.Obj >= best.Obj-1e-9 {
			return nil // bound: cannot improve the incumbent
		}
		// Most fractional free variable.
		branch, frac := -1, 0.0
		for j := 0; j < n; j++ {
			if fixed[j] >= 0 {
				continue
			}
			f := math.Abs(sol.X[j] - math.Round(sol.X[j]))
			if f > frac+1e-9 {
				branch, frac = j, f
			}
		}
		if branch < 0 || frac < 1e-6 {
			// Integral: new incumbent.
			x := make([]int, n)
			for j := 0; j < n; j++ {
				x[j] = int(math.Round(sol.X[j]))
			}
			best.Status = Optimal
			best.Obj = sol.Obj
			best.X = x
			return nil
		}
		// Branch: try the rounding the relaxation prefers first.
		order := [2]int{0, 1}
		if sol.X[branch] >= 0.5 {
			order = [2]int{1, 0}
		}
		for _, v := range order {
			fixed[branch] = v
			if err := rec(); err != nil {
				return err
			}
			fixed[branch] = -1
			if maxNodes > 0 && nodes > maxNodes {
				return nil
			}
		}
		return nil
	}
	if err := rec(); err != nil {
		return nil, err
	}
	return best, nil
}

// solveFixed solves the LP relaxation with 0<=x<=1 and the given fixings.
func (m *Model) solveFixed(fixed []int) (*Solution, error) {
	sub := NewModel(m.NumVars)
	copy(sub.Objective, m.Objective)
	sub.Constraints = append(sub.Constraints, m.Constraints...)
	for j, f := range fixed {
		coef := make([]float64, m.NumVars)
		coef[j] = 1
		switch f {
		case -1:
			sub.AddConstraint(coef, LE, 1)
		case 0:
			sub.AddConstraint(coef, EQ, 0)
		case 1:
			sub.AddConstraint(coef, EQ, 1)
		}
	}
	return sub.Solve()
}
