package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds collided %d/100 times", same)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Source
	if v := s.Float64(); v < 0 || v >= 1 {
		t.Fatalf("zero-value Source produced out-of-range Float64 %v", v)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling substreams produced identical first output")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRangeAndUniformity(t *testing.T) {
	s := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := s.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
		counts[v]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("bucket %d count %d deviates >10%% from %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUniformRange(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Uniform(-3,7) = %v out of range", v)
		}
	}
}

func TestNormMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("Norm variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(21)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleIntsPreservesMultiset(t *testing.T) {
	s := New(23)
	orig := []int{5, 5, 1, 2, 9, 9, 9}
	p := append([]int(nil), orig...)
	s.ShuffleInts(p)
	counts := map[int]int{}
	for _, v := range orig {
		counts[v]++
	}
	for _, v := range p {
		counts[v]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("shuffle changed multiplicity of %d by %d", k, c)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(29)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit fraction %v", frac)
	}
}

// Property: Intn(n) always lands in [0, n) for any positive n.
func TestQuickIntnInRange(t *testing.T) {
	s := New(31)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mul64 agrees with big-integer multiplication on the low bits
// and with float approximation on the high bits.
func TestQuickMul64(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		if lo != a*b {
			return false
		}
		// Verify hi using 32-bit decomposition independently.
		a0, a1 := a&0xffffffff, a>>32
		b0, b1 := b&0xffffffff, b>>32
		mid := a1*b0 + (a0*b0)>>32
		wantHi := a1*b1 + mid>>32 + (mid&0xffffffff+a0*b1)>>32
		return hi == wantHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenSequence pins the exact SplitMix64 output for a fixed seed.
// Any change to the generator silently invalidates every committed
// experiment table, so the raw bit patterns are locked down here.
func TestGoldenSequence(t *testing.T) {
	want := []uint64{
		0xbdd732262feb6e95,
		0x28efe333b266f103,
		0x47526757130f9f52,
		0x581ce1ff0e4ae394,
		0x09bc585a244823f2,
		0xde4431fa3c80db06,
	}
	s := New(42)
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("Uint64 #%d = %#016x, want %#016x", i, got, w)
		}
	}
	s2 := New(42)
	if f := s2.Float64(); f != 0.7415648787718233 {
		t.Fatalf("first Float64(seed 42) = %v", f)
	}
}

// TestCrossSeedIndependence checks that streams from adjacent seeds are
// statistically unrelated: bitwise agreement must sit near the 50%
// expected of independent uniform bits. SplitMix64's finaliser is what
// breaks the correlation between seeds that differ in one bit.
func TestCrossSeedIndependence(t *testing.T) {
	const draws = 4096
	for _, pair := range [][2]uint64{{0, 1}, {1, 2}, {7, 7 + 1<<32}} {
		a, b := New(pair[0]), New(pair[1])
		agree := 0
		for i := 0; i < draws; i++ {
			agree += bits.OnesCount64(^(a.Uint64() ^ b.Uint64()))
		}
		frac := float64(agree) / float64(64*draws)
		// 64*4096 Bernoulli(1/2) trials: sd ~ 0.001, allow 10 sd.
		if frac < 0.49 || frac > 0.51 {
			t.Fatalf("seeds %d/%d: bit agreement %.4f, want ~0.5", pair[0], pair[1], frac)
		}
	}
}

// TestSplitStreamStability verifies the substream contract that the
// experiment harness depends on: a child's sequence is fixed at Split
// time, so adding later trials (more Splits, more parent draws) never
// perturbs the streams earlier trials received.
func TestSplitStreamStability(t *testing.T) {
	record := func(nTrials int) []uint64 {
		parent := New(99)
		first := parent.Split()
		for i := 1; i < nTrials; i++ {
			parent.Split()
		}
		out := make([]uint64, 8)
		for i := range out {
			out[i] = first.Uint64()
		}
		return out
	}
	short, long := record(1), record(50)
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("draw %d: trial-1 stream changed when trial count grew (%#x != %#x)", i, short[i], long[i])
		}
	}
	// Children must also not echo the parent stream.
	parent, ref := New(99), New(99)
	child := parent.Split()
	ref.Uint64() // consume the Split draw
	same := 0
	for i := 0; i < 8; i++ {
		if child.Uint64() == ref.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("child echoed %d of 8 parent outputs", same)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = s.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = s.Intn(1000)
	}
	_ = sink
}
