// Fixture for the parpure analyzer: callees reached from callbacks
// handed to the deterministic-parallelism layer (stand-in Pool type)
// that write shared state outside the callback literal itself (its direct
// writes are the cases in loopcapture.go) — package-level variables behind
// any call depth, and closures nested inside the callback that write
// captured state.
package fixture

// Pool mirrors par.Pool for the callback-contract rule.
type Pool struct{}

// ForEach mirrors the par fan-out entry point.
func (p *Pool) ForEach(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

var tally int

func bumpTally(i int) {
	tally += i // want "writes package-level tally"
}

func pureSquare(i int) int { return i * i }

func parImpureCallee(p *Pool, n int) []int {
	out := make([]int, n)
	p.ForEach(n, func(i int) {
		out[i] = pureSquare(i) // disjoint slot through a pure callee — fine
		bumpTally(i)
	})
	return out
}

func parNestedClosureWrite(p *Pool, n int) int {
	total := 0
	p.ForEach(n, func(i int) {
		add := func(v int) {
			total += v // want "writes total declared outside the callback"
		}
		add(i)
	})
	return total
}

func parTransitiveImpure(p *Pool, n int) {
	p.ForEach(n, func(i int) {
		helper(i)
	})
}

func helper(i int) { deeper(i) }

func deeper(i int) {
	tally = i // want "writes package-level tally"
}

func parPureChain(p *Pool, n int) []int {
	out := make([]int, n)
	p.ForEach(n, func(i int) {
		v := pureSquare(i)
		local := v + helperPure(i)
		out[i] = local
	})
	return out
}

func helperPure(i int) int {
	acc := 0
	for j := 0; j < i; j++ {
		acc += j
	}
	return acc
}
