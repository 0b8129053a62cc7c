// Fixture for loop-variable and shared-state capture by func literals.
// Writes to captured state from callbacks handed to the
// deterministic-parallelism layer (stand-in Pool type; matching is by the
// receiver type name) are parpure findings. go/defer literals that read a
// loop variable are correct under go 1.22, where each iteration has its own
// variable, so no analyzer may flag them.
package fixture

import "sync"

// Pool mirrors par.Pool for the callback-contract rule.
type Pool struct{}

// ForEach mirrors the par fan-out entry point.
func (p *Pool) ForEach(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// Map mirrors the ordered-collect entry point.
func (p *Pool) Map(n int, fn func(i int) float64) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = fn(i)
	}
	return out
}

func loopGoroutineCapture(items []int) {
	var wg sync.WaitGroup
	for i, v := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			process(i)
			process(v)
		}()
	}
	for j := 0; j < len(items); j++ {
		defer func() {
			process(j)
		}()
	}
	wg.Wait()
}

func loopCaptureAsParameterIsFine(items []int) {
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			process(i)
		}(i)
	}
	wg.Wait()
}

func parSharedWrites(p *Pool, n int) float64 {
	total := 0.0
	counts := map[int]int{}
	shared := make([]float64, n)
	k := 3
	p.ForEach(n, func(i int) {
		total += float64(i)    // want "writes to total"
		counts[i]++            // want "shared map counts"
		shared[k] = float64(i) // want "index captured from outside"
		shared[i] = float64(i) // disjoint slot: index derived inside — fine
		local := float64(i)    // local state is the callback's own business
		local++
		_ = local
	})
	return total
}

func parDisjointSlotsAndReduce(p *Pool, n int) float64 {
	out := p.Map(n, func(i int) float64 {
		partial := 0.0
		for j := 0; j < i; j++ {
			partial += float64(j)
		}
		return partial
	})
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	return sum
}

func process(int) {}
