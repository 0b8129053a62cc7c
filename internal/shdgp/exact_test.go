package shdgp

import (
	"context"
	"fmt"
	"math"
	"testing"

	"mobicol/internal/bitset"
	"mobicol/internal/cover"
	"mobicol/internal/geom"
	"mobicol/internal/tsp"
	"mobicol/internal/wsn"
)

// TestPlanExactCollinearIsExact: on 20 sensors 5 m apart on one line the
// MST over sink + chosen stops is half the tour, so it alone prunes
// almost nothing and the search used to spend its whole node budget. The
// per-uncovered-sensor bound must close the search with a certificate.
func TestPlanExactCollinearIsExact(t *testing.T) {
	line := make([]geom.Point, 20)
	for i := range line {
		line[i] = geom.Pt(5*float64(i), 50)
	}
	field := geom.Square(100)
	p := NewProblem(wsn.New(line, field.Center(), 12, field))
	sol, err := PlanExact(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Exact {
		t.Fatalf("collinear instance not certified: %s, %.3f m over %d stops", sol.Algorithm, sol.Length, sol.Stops())
	}
	if err := sol.Validate(p); err != nil {
		t.Fatal(err)
	}
}

// TestPlanExactMatchesBruteForce checks the exact search against an
// oracle that shares none of it: every subset of the pruned candidates
// that covers all sensors, toured by Held–Karp from the sink. The search
// runs twice. From no incumbent it must find the oracle's optimum itself,
// so a bound that cuts an optimal branch fails here (the heuristic is
// optimal on most small networks and would hide it). Inside PlanExact it
// starts from the heuristic plan, which may use a dominated candidate and
// beat every pruned cover, so PlanExact's length is the smaller of the
// two. Seeded 8-sensor networks keep the pruned instances to at most 7
// candidates here, so the oracle tries at most 127 subsets.
func TestPlanExactMatchesBruteForce(t *testing.T) {
	ctx := context.Background()
	for _, pl := range []wsn.Placement{wsn.Uniform, wsn.Clustered} {
		for _, st := range []cover.CandidateStrategy{cover.SensorSites, cover.FieldGrid} {
			for seed := uint64(0); seed < 30; seed++ {
				name := fmt.Sprintf("%v/%v/seed%d", pl, st, seed)
				nw := wsn.MustDeploy(wsn.Config{N: 8, FieldSide: 100, Range: 25, Placement: pl, Seed: seed})
				p := &Problem{Net: nw, Strategy: st}
				full, err := p.Instance()
				if err != nil {
					t.Fatal(err)
				}
				inst, _ := full.Prune()
				want := bruteForceOptimum(t, inst, nw.Sink)

				_, got, exact, err := searchCovers(ctx, inst, nw.Sink, geom.Meters(math.Inf(1)))
				if err != nil || !exact {
					t.Fatalf("%s: search from no incumbent: exact %v, err %v", name, exact, err)
				}
				if math.Abs(float64(got-want)) > 1e-6 {
					t.Errorf("%s: search found %.6f m, brute-force optimum %.6f m", name, got, want)
				}

				sol, err := PlanExact(ctx, p)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !sol.Exact {
					t.Fatalf("%s: not certified (%s)", name, sol.Algorithm)
				}
				heur, err := Plan(ctx, p, DefaultPlannerOptions())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if best := min(want, heur.Length); math.Abs(float64(sol.Length-best)) > 1e-6 {
					t.Errorf("%s: PlanExact %.6f m, want %.6f m (the brute-force optimum %.6f m or the heuristic's %.6f m)",
						name, sol.Length, best, want, heur.Length)
				}
			}
		}
	}
}

// TestPlanExactCertifiesPrunedCandidatesOnly pins what Exact=true
// claims. On 8 clustered sensors (150 m field, 20 m range, grid
// candidates, seed 3) the best cover of the dominance-pruned candidates
// tours 269.8 m, while the heuristic, which chooses among every
// candidate, finds 219.5 m. PlanExact certifies the pruned optimum and
// returns the heuristic's shorter tour: the certificate covers the
// pruned candidates, not the returned tour against every candidate.
func TestPlanExactCertifiesPrunedCandidatesOnly(t *testing.T) {
	ctx := context.Background()
	nw := wsn.MustDeploy(wsn.Config{N: 8, FieldSide: 150, Range: 20, Placement: wsn.Clustered, Seed: 3})
	p := &Problem{Net: nw, Strategy: cover.FieldGrid}
	full, err := p.Instance()
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := full.Prune()
	pruned := bruteForceOptimum(t, inst, nw.Sink)
	heur, err := Plan(ctx, p, DefaultPlannerOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(pruned)-269.8) > 0.05 || math.Abs(float64(heur.Length)-219.5) > 0.05 {
		t.Fatalf("pruned optimum %.3f m and heuristic %.3f m, want 269.8 m and 219.5 m", pruned, heur.Length)
	}
	sol, err := PlanExact(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Exact || math.Abs(float64(sol.Length-heur.Length)) > 1e-9 {
		t.Fatalf("PlanExact: %.3f m, Exact=%v (%s); want the heuristic's %.3f m, certified", sol.Length, sol.Exact, sol.Algorithm, heur.Length)
	}
}

// bruteForceOptimum returns the shortest Held–Karp tour from sink over
// any subset of inst's candidates that covers every sensor.
func bruteForceOptimum(t *testing.T, inst *cover.Instance, sink geom.Point) geom.Meters {
	t.Helper()
	covers := inst.CoverSets()
	if len(covers) > 16 {
		t.Fatalf("%d pruned candidates: too many to enumerate", len(covers))
	}
	best := geom.Meters(math.Inf(1))
	for mask := 1; mask < 1<<len(covers); mask++ {
		got := bitset.New(inst.Universe)
		pts := []geom.Point{sink}
		for c := range covers {
			if mask&(1<<c) != 0 {
				got.Or(covers[c])
				pts = append(pts, inst.Candidates[c])
			}
		}
		if got.Count() != inst.Universe {
			continue
		}
		tour, err := tsp.HeldKarp(pts)
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, tour.Length(pts))
	}
	return best
}
