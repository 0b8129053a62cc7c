package replan

import (
	"context"
	"errors"
	"testing"
)

// failingCtx is a context whose Err reports context.Canceled from call
// number failAt on, so a test can cancel at any checkpoint.
type failingCtx struct {
	context.Context
	calls, failAt int
}

func (c *failingCtx) Err() error {
	c.calls++
	if c.calls >= c.failAt {
		return context.Canceled
	}
	return nil
}

// TestRepairCancellation: a context cancelled at any phase boundary
// aborts the repair with context.Canceled and no plan, and a context
// that is never cancelled changes nothing about the result.
func TestRepairCancellation(t *testing.T) {
	nw := deploy(250, 300, 30, 3)
	prev := coldPlan(t, nw)
	carried := CarryPositional(prev, nw.N())

	base, _, err := Repair(context.Background(), nw, prev, carried, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for failAt := 1; failAt <= 3; failAt++ {
		ctx := &failingCtx{Context: context.Background(), failAt: failAt}
		got, _, err := Repair(ctx, nw, prev, carried, Options{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("failAt=%d: err = %v, want context.Canceled", failAt, err)
		}
		if got != nil {
			t.Fatalf("failAt=%d: aborted repair returned a plan", failAt)
		}
		if ctx.calls != failAt {
			t.Fatalf("failAt=%d: repair checked ctx %d times, want it to stop at the failing check", failAt, ctx.calls)
		}
	}

	never := &failingCtx{Context: context.Background(), failAt: 1 << 30}
	allowed, _, err := Repair(never, nw, prev, carried, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !samePlan(base, allowed) {
		t.Fatal("an uncancelled context changed the repaired plan")
	}
	if never.calls != 3 {
		t.Fatalf("repair checked ctx %d times, want one check per phase boundary (3)", never.calls)
	}
}
