package par

import (
	"sync/atomic"
	"testing"
)

func pools() []Pool {
	return []Pool{{}, Seq(), Workers(2), Workers(3), Workers(8), Workers(0)}
}

func TestForEachCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, p := range pools() {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]int32, n)
			p.ForEach(n, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", p.Size(), n, i, h)
				}
			}
		}
	}
}

func TestForChunksPartitionIsContiguousAndComplete(t *testing.T) {
	for _, p := range pools() {
		for _, n := range []int{1, 2, 5, 17, 256} {
			var covered, calls int64
			seen := make([]int32, n)
			p.ForChunks(n, func(lo, hi int) {
				atomic.AddInt64(&calls, 1)
				if lo >= hi {
					t.Errorf("empty chunk [%d,%d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
					atomic.AddInt64(&covered, 1)
				}
			})
			if covered != int64(n) {
				t.Fatalf("workers=%d n=%d: covered %d indices", p.Size(), n, covered)
			}
			for i := range seen {
				if seen[i] != 1 {
					t.Fatalf("workers=%d n=%d: index %d in %d chunks", p.Size(), n, i, seen[i])
				}
			}
			if max := int64(min(p.Size(), n)); calls > max {
				t.Fatalf("workers=%d n=%d: %d chunks, want <= %d", p.Size(), n, calls, max)
			}
		}
	}
}

func TestMapOrderedForAnyPoolSize(t *testing.T) {
	want := Map(Seq(), 500, func(i int) int { return i * i })
	for _, p := range pools() {
		got := Map(p, 500, func(i int) int { return i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", p.Size(), i, got[i], want[i])
			}
		}
	}
}

func TestZeroAndNegativeSizes(t *testing.T) {
	if Seq().Size() != 1 || (Pool{}).Size() != 1 {
		t.Fatal("sequential pools must report size 1")
	}
	if Workers(-3).Size() < 1 {
		t.Fatal("Workers(-3) must clamp to at least one worker")
	}
	ran := false
	Workers(4).ForEach(0, func(int) { ran = true })
	if ran {
		t.Fatal("ForEach over an empty range invoked fn")
	}
}
