// Command mdgratchet enforces the repository's two ratchets against
// their committed baselines, so each measured quantity can only move in
// its good direction:
//
//   - cover: per-package `go test -cover` floors (COVERAGE_ratchet.txt),
//     measured from the test output piped in on stdin;
//   - escape: per-file heap-escape counts from `go build -gcflags='-m -m'`
//     over the planner hot packages (ESCAPE_baseline.txt). alloccheck
//     flags allocation sites syntactically; this pins what the compiler
//     actually decided about them.
//
// Plans are pinned elsewhere: RESULTS.txt (`make results`) holds every
// experiment table, the scale rows included, bit for bit.
//
// Usage:
//
//	go test -cover ./... | mdgratchet cover [-baseline file] [-update]
//	mdgratchet escape [-baseline file] [-update] [packages]
//
// -update rewrites the baseline from the current measurement instead of
// comparing; cover floors sit check.FloorMargin points below the
// measurement. escape's package arguments substitute the measured
// packages. The tool exits 0 when the baseline holds or was rewritten, 1
// on a regression, and 2 on an operational error: bad usage, an unknown
// kind, a missing or unreadable baseline, empty or failing `go test`
// output, or a failed build.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"strings"

	"mobicol/internal/check"
)

const usage = `usage:
  go test -cover ./... | mdgratchet cover [-baseline file] [-update]
  mdgratchet escape [-baseline file] [-update] [packages]
`

// hotPackages is escape's default analysis set: the planning hot path
// plus the data structures it leans on.
const hotPackages = "./internal/tsp ./internal/cover ./internal/shdgp ./internal/replan " +
	"./internal/par ./internal/bitset ./internal/geom ./internal/obs"

// measurement is one kind's current state.
type measurement interface {
	// write renders the measurement as a baseline and says what it wrote.
	write(w io.Writer) (string, error)
	// compare checks the measurement against the committed baseline and
	// returns one line per regression plus a summary of the verdict.
	compare(base []byte) (bad []string, summary string, err error)
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		fmt.Fprint(os.Stderr, usage)
		return 2
	}
	kind := args[0]
	flags := flag.NewFlagSet("mdgratchet "+kind, flag.ContinueOnError)
	var file string
	var measure func() (measurement, error)
	switch kind {
	case "cover":
		file = "COVERAGE_ratchet.txt"
		measure = func() (measurement, error) { return measureCover(os.Stdin) }
	case "escape":
		file = "ESCAPE_baseline.txt"
		measure = func() (measurement, error) { return measureEscapes(flags.Args()) }
	default:
		fmt.Fprintf(os.Stderr, "mdgratchet: unknown kind %q\n%s", kind, usage)
		return 2
	}
	baseline := flags.String("baseline", file, "committed baseline file")
	update := flags.Bool("update", false, "rewrite the baseline from the current measurement instead of comparing")
	if err := flags.Parse(args[1:]); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "mdgratchet %s: %v\n", kind, err)
		return 2
	}
	if kind != "escape" && flags.NArg() > 0 {
		return fail(fmt.Errorf("unexpected arguments %q", flags.Args()))
	}
	base, err := os.ReadFile(*baseline)
	switch {
	case errors.Is(err, fs.ErrNotExist) && !*update:
		return fail(fmt.Errorf("no baseline at %s (run mdgratchet %s -update to create it)", *baseline, kind))
	case err != nil && !errors.Is(err, fs.ErrNotExist):
		return fail(err)
	}
	cur, err := measure()
	if err != nil {
		return fail(err)
	}

	if *update {
		var buf bytes.Buffer
		what, err := cur.write(&buf)
		if err == nil {
			err = os.WriteFile(*baseline, buf.Bytes(), 0o644)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Printf("mdgratchet %s: wrote %s to %s\n", kind, what, *baseline)
		return 0
	}
	bad, summary, err := cur.compare(base)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", *baseline, err))
	}
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintf(os.Stderr, "mdgratchet %s: %s\n", kind, b)
		}
		fmt.Fprintf(os.Stderr, "mdgratchet %s: %s\n", kind, summary)
		return 1
	}
	fmt.Printf("mdgratchet %s: %s\n", kind, summary)
	return 0
}

// coverage is per-package statement coverage, in percent.
type coverage map[string]float64

func measureCover(r io.Reader) (measurement, error) {
	cov, err := check.ParseCover(r)
	if err != nil {
		return nil, err
	}
	if len(cov) == 0 {
		return nil, errors.New("no coverage lines on stdin (pipe `go test -cover ./...` output in)")
	}
	return coverage(cov), nil
}

func (c coverage) write(w io.Writer) (string, error) {
	return fmt.Sprintf("%d floors", len(c)), check.WriteRatchet(w, check.Floors(c))
}

func (c coverage) compare(base []byte) ([]string, string, error) {
	floors, err := check.ReadRatchet(bytes.NewReader(base))
	if err != nil {
		return nil, "", err
	}
	if bad := check.CompareRatchet(c, floors); len(bad) > 0 {
		return bad, fmt.Sprintf("%d package(s) below the coverage ratchet", len(bad)), nil
	}
	return nil, fmt.Sprintf("%d measured packages hold against %d floors", len(c), len(floors)), nil
}

// escapes is the compiler's escape diagnostics for the measured packages.
type escapes []check.EscapeRecord

// measureEscapes builds pkgs with escape diagnostics enabled and parses
// the compiler output. The -gcflags value applies only to the packages
// named on the command line, so dependencies stay quiet, and the
// diagnostics replay from the build cache, so repeat runs are cheap.
func measureEscapes(pkgs []string) (measurement, error) {
	if len(pkgs) == 0 {
		pkgs = strings.Fields(hotPackages)
	}
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m -m"}, pkgs...)...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build failed: %v\n%s", err, out.String())
	}
	recs, err := check.ParseEscapes(&out)
	if err != nil {
		return nil, err
	}
	return escapes(recs), nil
}

func (e escapes) write(w io.Writer) (string, error) {
	return fmt.Sprintf("%d escape record(s)", len(e)), check.WriteEscapeBaseline(w, check.CountEscapes(e))
}

func (e escapes) compare(base []byte) ([]string, string, error) {
	baseline, err := check.ReadEscapeBaseline(bytes.NewReader(base))
	if err != nil {
		return nil, "", err
	}
	if bad := check.CompareEscapes(e, baseline); len(bad) > 0 {
		return bad, fmt.Sprintf("%d file(s) above the escape baseline", len(bad)), nil
	}
	return nil, fmt.Sprintf("%d escape record(s) hold against the baseline", len(e)), nil
}
