// Fixture for errcheck's dead rule: error values that are overwritten
// or dead before any check, including multi-assignment and named-return
// paths, plus the negative shapes the linear model must stay silent on.
package fixture

import "errors"

func step() error { return nil }

func pair() (int, error) { return 0, nil }

func sink(error) {}

// overwritten trips the same-block overwrite rule: the first error is
// replaced before anything reads it.
func overwritten() error {
	err := step() // want "overwritten before any check"
	err = step()
	return err
}

// deadTail trips the never-checked rule: the tail assignment is dead,
// the function returns nil regardless.
func deadTail() error {
	err := step()
	if err != nil {
		return err
	}
	err = step() // want "never checked"
	return nil
}

// deadMulti trips the rule through multi-assignment: the re-declared
// error is assigned alongside a used value and then dropped.
func deadMulti() int {
	n, err := pair()
	if err != nil {
		return 0
	}
	n2, err := pair() // want "never checked"
	return n + n2
}

// namedDiscard trips the rule on a named-return path: the explicit
// `return nil` discards the assigned error instead of publishing it.
func namedDiscard() (err error) {
	err = step() // want "never checked"
	return nil
}

// namedNaked is silent: a naked return publishes the named error.
func namedNaked() (err error) {
	err = step()
	return
}

// checkedBranches is silent: kills in different blocks pair with the
// check after the branch.
func checkedBranches(flip bool) error {
	var err error
	if flip {
		err = step()
	} else {
		err = errors.New("flipped")
	}
	return err
}

// loopCarried is silent: the use before the assignment sits in the same
// loop, so it reads the value on the next iteration.
func loopCarried(n int) error {
	var last error
	for i := 0; i < n; i++ {
		if last != nil {
			return last
		}
		last = step()
	}
	return nil
}

// escaped is silent: address-taken and closure-captured errors may be
// read at any time.
func escaped() {
	err := step()
	sinkPtr(&err)
	cerr := step()
	defer func() { sink(cerr) }()
}

func sinkPtr(*error) {}
