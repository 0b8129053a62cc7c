// Differential suite: on instances small enough for the exact SHDGP
// solver, the heuristic may never beat the proven optimum, and both
// planners' outputs must satisfy the same oracle.
package check_test

import (
	"context"
	"testing"

	"mobicol/internal/check"
	"mobicol/internal/geom"
	"mobicol/internal/rng"
	"mobicol/internal/shdgp"
	"mobicol/internal/wsn"
)

// smallNets generates deterministic deployments with n ≤ 10 — inside the
// exact solver's candidate budget. Half uniform, half with duplicated
// positions to stress degenerate covers.
func smallNets(seed uint64, count int) []*wsn.Network {
	src := rng.New(seed)
	out := make([]*wsn.Network, 0, count)
	for i := 0; i < count; i++ {
		s := src.Split()
		n := 3 + s.Intn(8) // 3..10 sensors
		side := s.Uniform(50, 120)
		r := s.Uniform(12, 30)
		field := geom.Square(side)
		pts := make([]geom.Point, 0, n)
		for j := 0; j < n; j++ {
			if i%2 == 1 && j > 0 && s.Bool(0.3) {
				pts = append(pts, pts[s.Intn(j)]) // duplicate an earlier sensor
				continue
			}
			pts = append(pts, geom.Pt(s.Uniform(0, side), s.Uniform(0, side)))
		}
		out = append(out, wsn.New(pts, field.Center(), r, field))
	}
	return out
}

func TestHeuristicNeverBeatsExact(t *testing.T) {
	nets := smallNets(0xD1FF, 40)
	for i, nw := range nets {
		p := shdgp.NewProblem(nw)
		heur, err := shdgp.Plan(context.Background(), p, shdgp.DefaultPlannerOptions())
		if err != nil {
			t.Fatalf("net %d: heuristic: %v", i, err)
		}
		ex, err := shdgp.PlanExact(context.Background(), p)
		if err != nil {
			t.Fatalf("net %d: exact: %v", i, err)
		}
		if !ex.Exact {
			t.Fatalf("net %d (n=%d): exact solver did not certify optimality", i, nw.N())
		}
		if heur.Length < ex.Length-1e-6 {
			t.Fatalf("net %d (n=%d): heuristic %.9f beat proven optimum %.9f",
				i, nw.N(), heur.Length, ex.Length)
		}
		for algo, sol := range map[string]*shdgp.Solution{"heuristic": heur, "exact": ex} {
			if err := check.Plan(nw, sol.Plan, check.Options{}); err != nil {
				t.Fatalf("net %d: %s plan: %v", i, algo, err)
			}
			if err := sol.Validate(p); err != nil {
				t.Fatalf("net %d: %s Validate: %v", i, algo, err)
			}
			if err := check.RecordedLength(sol.Plan, sol.Length); err != nil {
				t.Fatalf("net %d: %s: %v", i, algo, err)
			}
		}
	}
}
