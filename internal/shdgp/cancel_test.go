package shdgp

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"mobicol/internal/obs"
	"mobicol/internal/obs/analyze"
)

// TestPlanCancelAtRefineStart cancels from the refine span's start
// edge: Plan must return context.Canceled having run no refine pass and
// started no tsp phase.
func TestPlanCancelAtRefineStart(t *testing.T) {
	p := deploy(200, 200, 30, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	tr := obs.New(&buf)
	tr.SetSpanHook(func(name string, _ int, end bool) {
		if name == "refine" && !end {
			cancel()
		}
	})
	opts := DefaultPlannerOptions()
	opts.Obs = tr
	sol, err := Plan(ctx, p, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sol != nil {
		t.Fatal("canceled plan returned a solution")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	parsed, err := analyze.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	passes := ""
	for _, sp := range parsed.Spans {
		switch sp.Name {
		case "tsp":
			t.Fatal("the tsp phase started after cancellation")
		case "refine":
			for _, f := range sp.Fields {
				if f.Key == "passes" {
					passes = f.Value
				}
			}
		}
	}
	if passes != "0" {
		t.Fatalf("refine recorded passes = %q, want 0", passes)
	}
}

// failingCtx is a context whose Err reports context.Canceled from call
// number failAt on, counting every call.
type failingCtx struct {
	context.Context
	calls, failAt int
}

func (c *failingCtx) Err() error {
	c.calls++
	if c.failAt > 0 && c.calls >= c.failAt {
		return context.Canceled
	}
	return nil
}

// TestPlanExactCancelsMidEnumeration: PlanExact checks ctx every
// exactCheckEvery enumeration nodes, so a context that fails at the
// first check after the heuristic incumbent's own stops the cover
// enumeration and returns context.Canceled.
func TestPlanExactCancelsMidEnumeration(t *testing.T) {
	p := deploy(40, 80, 25, 2)
	heur := &failingCtx{Context: context.Background()}
	if _, err := Plan(heur, p, DefaultPlannerOptions()); err != nil {
		t.Fatal(err)
	}
	ctx := &failingCtx{Context: context.Background(), failAt: heur.calls + 1}
	sol, err := PlanExact(ctx, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sol != nil {
		t.Fatal("canceled exact plan returned a solution")
	}
	if ctx.calls != ctx.failAt {
		t.Fatalf("ctx checked %d times, want the enumeration to stop at check %d", ctx.calls, ctx.failAt)
	}
}

// TestPlanExactCancelsAtLeaf: every complete cover's Held–Karp tour is
// preceded by a ctx check, so a search that ends before its first
// periodic check still stops at its first leaf. On this field the search
// tours 510 leaves in 1,490 nodes, fewer than exactCheckEvery.
func TestPlanExactCancelsAtLeaf(t *testing.T) {
	p := deploy(22, 90, 25, 4)
	heur := &failingCtx{Context: context.Background()}
	if _, err := Plan(heur, p, DefaultPlannerOptions()); err != nil {
		t.Fatal(err)
	}
	ctx := &failingCtx{Context: context.Background(), failAt: heur.calls + 1}
	sol, err := PlanExact(ctx, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sol != nil {
		t.Fatal("canceled exact plan returned a solution")
	}
}
