package des

import (
	"testing"
	"testing/quick"

	"mobicol/internal/rng"
)

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return s.queue.Len() }

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []float64
	for _, tm := range []float64{5, 1, 3, 2, 4} {
		tm := tm
		s.At(tm, func(now float64) { order = append(order, now) })
	}
	end, drained := s.Run(0)
	if !drained || end != 5 {
		t.Fatalf("end=%v drained=%v", end, drained)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("events out of order: %v", order)
		}
	}
}

func TestTieBreakIsInsertionOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7, func(float64) { order = append(order, i) })
	}
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := New()
	var hits []float64
	s.At(1, func(now float64) {
		hits = append(hits, now)
		s.After(2, func(now float64) { hits = append(hits, now) })
	})
	end, _ := s.Run(0)
	if end != 3 || len(hits) != 2 || hits[1] != 3 {
		t.Fatalf("nested scheduling: end=%v hits=%v", end, hits)
	}
}

func TestClockAdvancesMonotonically(t *testing.T) {
	s := New()
	src := rng.New(3)
	prev := -1.0
	bad := false
	var spawn func(now float64)
	count := 0
	spawn = func(now float64) {
		if now < prev {
			bad = true
		}
		prev = now
		count++
		if count < 500 {
			s.After(src.Uniform(0, 10), spawn)
		}
	}
	s.After(0, spawn)
	s.Run(0)
	if bad {
		t.Fatal("clock went backwards")
	}
	if count != 500 {
		t.Fatalf("ran %d events", count)
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	s := New()
	s.At(5, func(float64) {})
	s.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("past scheduling did not panic")
		}
	}()
	s.At(1, func(float64) {})
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	New().After(-1, func(float64) {})
}

func TestMaxEventsCap(t *testing.T) {
	s := New()
	var ping func(now float64)
	ping = func(float64) { s.After(1, ping) } // would run forever
	s.After(0, ping)
	_, drained := s.Run(100)
	if drained {
		t.Fatal("infinite chain reported drained")
	}
	if s.Steps() != 100 {
		t.Fatalf("Steps = %d", s.Steps())
	}
}

func TestPending(t *testing.T) {
	s := New()
	s.At(1, func(float64) {})
	s.At(2, func(float64) {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	s.Run(0)
	if s.Pending() != 0 {
		t.Fatal("queue not drained")
	}
}

// Property: N events at random times all fire, in non-decreasing order.
func TestQuickAllEventsFire(t *testing.T) {
	src := rng.New(9)
	f := func() bool {
		s := New()
		n := 1 + src.Intn(200)
		fired := 0
		last := -1.0
		ok := true
		for i := 0; i < n; i++ {
			s.At(src.Uniform(0, 100), func(now float64) {
				fired++
				if now < last {
					ok = false
				}
				last = now
			})
		}
		s.Run(0)
		return ok && fired == n
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
