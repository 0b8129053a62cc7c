// Package lp implements a dense two-phase primal simplex solver for linear
// programs and a 0/1 branch-and-bound integer solver on top of it. It is
// this repository's stand-in for the CPLEX runs in the paper's evaluation:
// the exact minimum-stop covers on small networks are certified against
// the set-cover ILP solved here, and the LP relaxation provides lower
// bounds for the experiment tables.
//
// The solver targets the small, dense instances this project produces
// (tens of variables). It is not a general-purpose LP code: no sparsity,
// no presolve, no revised simplex.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is a constraint relation.
type Sense int

const (
	// LE is "<=".
	LE Sense = iota
	// GE is ">=".
	GE
	// EQ is "=".
	EQ
)

// Status reports how solving ended.
type Status int

const (
	// Optimal: an optimal solution was found.
	Optimal Status = iota
	// Infeasible: the constraints admit no solution.
	Infeasible
	// Unbounded: the objective decreases without bound.
	Unbounded
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Constraint is one row: sum_j Coef[j]·x_j  (Sense)  RHS.
type Constraint struct {
	Coef  []float64
	Sense Sense
	RHS   float64
}

// Model is a minimisation LP over non-negative variables:
//
//	minimise  c·x   subject to  constraints,  x >= 0.
//
// Maximisation callers negate the objective. Upper bounds are expressed as
// ordinary constraints.
type Model struct {
	NumVars     int
	Objective   []float64
	Constraints []Constraint
}

// NewModel returns a model with n non-negative variables and a zero
// objective.
func NewModel(n int) *Model {
	return &Model{NumVars: n, Objective: make([]float64, n)}
}

// SetObjective sets the coefficient of variable j.
func (m *Model) SetObjective(j int, c float64) {
	m.Objective[j] = c
}

// AddConstraint appends a row. The coefficient slice is copied.
func (m *Model) AddConstraint(coef []float64, sense Sense, rhs float64) {
	if len(coef) != m.NumVars {
		//mdglint:ignore nopanic dimension mismatch is a programming error, like mismatched matrix dimensions
		panic(fmt.Sprintf("lp: constraint has %d coefficients, model has %d vars", len(coef), m.NumVars))
	}
	m.Constraints = append(m.Constraints, Constraint{append([]float64(nil), coef...), sense, rhs})
}

// Solution is an LP solution.
type Solution struct {
	Status Status
	X      []float64
	Obj    float64
}

const (
	tol     = 1e-9
	maxIter = 50000
)

// ErrIterationLimit is returned when simplex fails to converge, which for
// these tiny instances indicates a modelling bug.
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

// Solve runs two-phase primal simplex with Bland's anti-cycling rule.
func (m *Model) Solve() (*Solution, error) {
	nRows := len(m.Constraints)
	nStruct := m.NumVars

	// Normalise to RHS >= 0 and count auxiliary columns.
	type rowInfo struct {
		coef  []float64
		rhs   float64
		sense Sense
	}
	rows := make([]rowInfo, nRows)
	nSlack, nArt := 0, 0
	for i, c := range m.Constraints {
		coef := append([]float64(nil), c.Coef...)
		rhs := c.RHS
		sense := c.Sense
		if rhs < 0 {
			for j := range coef {
				coef[j] = -coef[j]
			}
			rhs = -rhs
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		rows[i] = rowInfo{coef, rhs, sense}
		switch sense {
		case LE:
			nSlack++
		case GE:
			nSlack++ // surplus
			nArt++
		case EQ:
			nArt++
		}
	}
	nCols := nStruct + nSlack + nArt
	// Tableau: nRows x (nCols + 1), last column = RHS.
	t := make([][]float64, nRows)
	basis := make([]int, nRows)
	slackAt, artAt := nStruct, nStruct+nSlack
	for i, r := range rows {
		t[i] = make([]float64, nCols+1)
		copy(t[i], r.coef)
		t[i][nCols] = r.rhs
		switch r.sense {
		case LE:
			t[i][slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case GE:
			t[i][slackAt] = -1
			slackAt++
			t[i][artAt] = 1
			basis[i] = artAt
			artAt++
		case EQ:
			t[i][artAt] = 1
			basis[i] = artAt
			artAt++
		}
	}

	pivot := func(obj []float64, allowed int) (Status, error) {
		for iter := 0; iter < maxIter; iter++ {
			// Reduced costs: obj[j] - sum_i obj[basis[i]] * t[i][j].
			// Maintain explicitly each iteration (dense, small).
			enter := -1
			for j := 0; j < allowed; j++ {
				rc := obj[j]
				for i := 0; i < nRows; i++ {
					rc -= obj[basis[i]] * t[i][j]
				}
				if rc < -tol {
					enter = j // Bland: first improving column
					break
				}
			}
			if enter < 0 {
				return Optimal, nil
			}
			// Ratio test, Bland ties toward the lowest basis variable.
			leave, best := -1, math.Inf(1)
			for i := 0; i < nRows; i++ {
				if t[i][enter] > tol {
					ratio := t[i][nCols] / t[i][enter]
					if ratio < best-tol || (ratio < best+tol && (leave < 0 || basis[i] < basis[leave])) {
						leave, best = i, ratio
					}
				}
			}
			if leave < 0 {
				return Unbounded, nil
			}
			// Pivot on (leave, enter).
			pv := t[leave][enter]
			for j := 0; j <= nCols; j++ {
				t[leave][j] /= pv
			}
			for i := 0; i < nRows; i++ {
				if i != leave && math.Abs(t[i][enter]) > 0 {
					f := t[i][enter]
					for j := 0; j <= nCols; j++ {
						t[i][j] -= f * t[leave][j]
					}
				}
			}
			basis[leave] = enter
		}
		return Optimal, ErrIterationLimit
	}

	// Phase 1: minimise the sum of artificials.
	if nArt > 0 {
		phase1 := make([]float64, nCols)
		for j := nStruct + nSlack; j < nCols; j++ {
			phase1[j] = 1
		}
		st, err := pivot(phase1, nCols)
		if err != nil {
			return nil, err
		}
		if st == Unbounded {
			return nil, errors.New("lp: phase 1 unbounded (internal error)")
		}
		sum := 0.0
		for i := 0; i < nRows; i++ {
			if basis[i] >= nStruct+nSlack {
				sum += t[i][nCols]
			}
		}
		if sum > 1e-7 {
			return &Solution{Status: Infeasible}, nil
		}
		// Drive any remaining (degenerate) artificials out of the basis.
		for i := 0; i < nRows; i++ {
			if basis[i] < nStruct+nSlack {
				continue
			}
			pivoted := false
			for j := 0; j < nStruct+nSlack; j++ {
				if math.Abs(t[i][j]) > tol {
					pv := t[i][j]
					for k := 0; k <= nCols; k++ {
						t[i][k] /= pv
					}
					for r := 0; r < nRows; r++ {
						if r != i && math.Abs(t[r][j]) > 0 {
							f := t[r][j]
							for k := 0; k <= nCols; k++ {
								t[r][k] -= f * t[i][k]
							}
						}
					}
					basis[i] = j
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: leave the artificial basic at zero. It
				// can never re-enter because phase 2 restricts columns.
				_ = pivoted
			}
		}
	}

	// Phase 2: minimise the real objective over structural + slack columns.
	phase2 := make([]float64, nCols)
	copy(phase2, m.Objective)
	st, err := pivot(phase2, nStruct+nSlack)
	if err != nil {
		return nil, err
	}
	if st == Unbounded {
		return &Solution{Status: Unbounded}, nil
	}
	x := make([]float64, nStruct)
	for i, b := range basis {
		if b < nStruct {
			x[b] = t[i][nCols]
		}
	}
	obj := 0.0
	for j, c := range m.Objective {
		obj += c * x[j]
	}
	return &Solution{Status: Optimal, X: x, Obj: obj}, nil
}
