package check

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file implements the coverage ratchet: CI runs `go test -cover`,
// parses the per-package percentages, and compares them against committed
// floors so coverage can only move up. `mdgratchet cover` is the CLI
// front end.

// FloorMargin is the percentage points Floors subtracts from a
// measurement, so ordinary run-to-run jitter does not fail CI.
const FloorMargin = 1.0

// ParseCover extracts per-package coverage percentages from the output of
// `go test -cover ./...`. Packages without test files and packages without
// statements are skipped; a FAIL line aborts with an error, since ratcheting
// coverage from a failing run would pin garbage.
func ParseCover(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		switch fields[0] {
		case "FAIL":
			return nil, fmt.Errorf("check: refusing to ratchet a failing test run: %q", line)
		case "ok":
			pct, found, err := coverPercent(fields)
			if err != nil {
				return nil, fmt.Errorf("check: %v in line %q", err, line)
			}
			if found {
				out[fields[1]] = pct
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("check: reading cover output: %w", err)
	}
	return out, nil
}

// coverPercent finds the "coverage: N.M% of statements" clause in one
// tokenized `go test` line. found is false for packages with no statements
// (go prints "coverage: [no statements]") or no coverage clause at all.
func coverPercent(fields []string) (pct float64, found bool, err error) {
	for i, f := range fields {
		if f != "coverage:" || i+1 >= len(fields) {
			continue
		}
		next := fields[i+1]
		if next == "[no" {
			return 0, false, nil
		}
		v, perr := strconv.ParseFloat(strings.TrimSuffix(next, "%"), 64)
		if perr != nil {
			return 0, false, fmt.Errorf("unparseable coverage %q", next)
		}
		return v, true, nil
	}
	return 0, false, nil
}

// ReadRatchet parses a ratchet file: one "import/path minimum-percent" pair
// per line, '#' comments and blank lines ignored. Errors cite the line.
func ReadRatchet(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for lineno := 1; sc.Scan(); lineno++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("check: ratchet line %d: want \"package percent\", got %q", lineno, line)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil || v < 0 || v > 100 {
			return nil, fmt.Errorf("check: ratchet line %d: bad percentage %q", lineno, f[1])
		}
		out[f[0]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("check: reading ratchet: %w", err)
	}
	return out, nil
}

// WriteRatchet writes floors in the format ReadRatchet parses, after a
// '#' header, packages sorted for stable diffs.
func WriteRatchet(w io.Writer, floors map[string]float64) error {
	pkgs := make([]string, 0, len(floors))
	for p := range floors {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	var b strings.Builder
	b.WriteString("# Per-package `go test -cover` floors. CI fails if a package drops below\n" +
		"# its floor. Regenerate with: make cover-update (mdgratchet cover -update).\n")
	for _, p := range pkgs {
		fmt.Fprintf(&b, "%s %.1f\n", p, floors[p])
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CompareRatchet checks measured coverage against committed floors and
// returns one message per violated floor (sorted by package; nil when all
// floors hold). Packages present in got but absent from the ratchet never
// fail — new packages ratchet in on the next -update.
func CompareRatchet(got, floors map[string]float64) []string {
	pkgs := make([]string, 0, len(floors))
	for p := range floors {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	var bad []string
	for _, p := range pkgs {
		floor := floors[p]
		cov, ok := got[p]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: no coverage reported, ratchet floor is %.1f%%", p, floor))
			continue
		}
		if cov < floor {
			bad = append(bad, fmt.Sprintf("%s: coverage %.1f%% fell below ratchet floor %.1f%%", p, cov, floor))
		}
	}
	return bad
}

// Floors derates measured coverage by FloorMargin to produce committable
// ratchet floors, clamped to [0, 100] and truncated to one decimal so
// regenerated files stay stable across runs that only wiggle in the
// second decimal.
func Floors(cov map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(cov))
	for p, v := range cov {
		f := v - FloorMargin
		if f < 0 {
			f = 0
		}
		// Truncate (not round) so the floor never exceeds the measurement.
		out[p] = float64(int(f*10)) / 10
	}
	return out
}
