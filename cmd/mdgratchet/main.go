// Command mdgratchet enforces the repository's coverage ratchet: the
// per-package `go test -cover` floors in COVERAGE_ratchet.txt, measured
// from the test output piped in on stdin, may only move up.
//
// The other pinned quantities have their own gates: RESULTS.txt
// (`make results`) holds every experiment table, the scale rows
// included, bit for bit, and TestPlanAllocsCeiling counts the heap
// allocations of one plan of every registered planner.
//
// Usage:
//
//	go test -cover ./... | mdgratchet cover [-baseline file] [-update]
//
// -update rewrites the baseline from the current measurement instead of
// comparing, with floors check.FloorMargin points below the measurement.
// The tool exits 0 when the baseline holds or was rewritten, 1 on a
// regression, and 2 on an operational error: bad usage, an unknown kind,
// a missing or unreadable baseline, or empty or failing `go test` output.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"

	"mobicol/internal/check"
)

const usage = "usage: go test -cover ./... | mdgratchet cover [-baseline file] [-update]\n"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		fmt.Fprint(os.Stderr, usage)
		return 2
	}
	if kind := args[0]; kind != "cover" {
		fmt.Fprintf(os.Stderr, "mdgratchet: unknown kind %q\n%s", kind, usage)
		return 2
	}
	flags := flag.NewFlagSet("mdgratchet cover", flag.ContinueOnError)
	baseline := flags.String("baseline", "COVERAGE_ratchet.txt", "committed baseline file")
	update := flags.Bool("update", false, "rewrite the baseline from the current measurement instead of comparing")
	if err := flags.Parse(args[1:]); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "mdgratchet cover: %v\n", err)
		return 2
	}
	if flags.NArg() > 0 {
		return fail(fmt.Errorf("unexpected arguments %q", flags.Args()))
	}
	cov, err := check.ParseCover(os.Stdin)
	if err != nil {
		return fail(err)
	}
	if len(cov) == 0 {
		return fail(errors.New("no coverage lines on stdin (pipe `go test -cover ./...` output in)"))
	}

	if *update {
		var buf bytes.Buffer
		err := check.WriteRatchet(&buf, check.Floors(cov))
		if err == nil {
			err = os.WriteFile(*baseline, buf.Bytes(), 0o644)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Printf("mdgratchet cover: wrote %d floors to %s\n", len(cov), *baseline)
		return 0
	}
	base, err := os.ReadFile(*baseline)
	if errors.Is(err, fs.ErrNotExist) {
		return fail(fmt.Errorf("no baseline at %s (run mdgratchet cover -update to create it)", *baseline))
	}
	if err != nil {
		return fail(err)
	}
	floors, err := check.ReadRatchet(bytes.NewReader(base))
	if err != nil {
		return fail(fmt.Errorf("%s: %w", *baseline, err))
	}
	if bad := check.CompareRatchet(cov, floors); len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintf(os.Stderr, "mdgratchet cover: %s\n", b)
		}
		fmt.Fprintf(os.Stderr, "mdgratchet cover: %d package(s) below the coverage ratchet\n", len(bad))
		return 1
	}
	fmt.Printf("mdgratchet cover: %d measured packages hold against %d floors\n", len(cov), len(floors))
	return 0
}
