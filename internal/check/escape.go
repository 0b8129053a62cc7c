package check

import (
	"bufio"
	"fmt"
	"io"
	"path"
	"sort"
	"strconv"
	"strings"
)

// This file implements the escape-diagnostic ratchet: CI builds the hot
// packages with `go build -gcflags='-m -m'`, parses the compiler's escape
// diagnostics, and compares them against a committed baseline so the
// number of heap escapes on the hot path can only move down. It is the
// compiler-verdict complement to the lint engine's syntactic alloccheck:
// alloccheck flags allocation *sites*, the escape ratchet pins what the
// compiler actually decided about them. `mdgratchet escape` is the CLI
// front end.

// EscapeRecord is one compiler escape diagnostic: a value the compiler
// heap-allocated in the named package.
type EscapeRecord struct {
	Pkg  string // import path, from the preceding "# pkg" header
	File string // base name of the source file
	Line int    // 1-based source line
	Kind string // "escapes-to-heap" or "moved-to-heap"
}

// String renders the record the way the diff messages cite it.
func (r EscapeRecord) String() string {
	return fmt.Sprintf("%s/%s:%d %s", r.Pkg, r.File, r.Line, r.Kind)
}

// Escape diagnostic kinds. "escapes to heap" marks an allocation the
// compiler could not stack-allocate (makes, literals, boxed interface
// values); "moved to heap" marks a named local variable forced to the
// heap because a reference outlives the frame.
const (
	KindEscapes = "escapes-to-heap"
	KindMoved   = "moved-to-heap"
)

// ParseEscapes extracts escape diagnostics from `go build -gcflags='-m -m'`
// output (the compiler writes them to stderr). Lines look like
//
//	# mobicol/internal/tsp
//	internal/tsp/tour.go:79:17: make(Tour, 0, len(t)) escapes to heap
//	internal/tsp/exact.go:40:2: moved to heap: prev
//
// The "#" header names the package for the diagnostics that follow. With
// the doubled -m the compiler prints each escaping site twice — once with
// a trailing colon introducing the flow explanation, once plain — so
// records are deduplicated on (pkg, file, line, column, kind). Inlining
// chatter and "does not escape" lines are ignored.
func ParseEscapes(r io.Reader) ([]EscapeRecord, error) {
	var out []EscapeRecord
	seen := make(map[string]bool)
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		kind := ""
		switch {
		case strings.Contains(line, " escapes to heap"):
			kind = KindEscapes
		case strings.Contains(line, "moved to heap"):
			kind = KindMoved
		default:
			continue
		}
		file, ln, col, ok := splitPosPrefix(line)
		if !ok {
			continue // flow-explanation continuation lines have no position
		}
		key := fmt.Sprintf("%s\x00%s\x00%d\x00%d\x00%s", pkg, file, ln, col, kind)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, EscapeRecord{Pkg: pkg, File: file, Line: ln, Kind: kind})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("check: reading escape diagnostics: %w", err)
	}
	return out, nil
}

// splitPosPrefix parses the "path/file.go:line:col: " prefix of a
// compiler diagnostic, returning the base file name.
func splitPosPrefix(line string) (file string, ln, col int, ok bool) {
	rest := line
	idx := strings.Index(rest, ".go:")
	if idx < 0 {
		return "", 0, 0, false
	}
	file = path.Base(strings.TrimSpace(rest[:idx+3]))
	rest = rest[idx+4:]
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) < 3 {
		return "", 0, 0, false
	}
	ln, err := strconv.Atoi(parts[0])
	if err != nil || ln <= 0 {
		return "", 0, 0, false
	}
	col, err = strconv.Atoi(parts[1])
	if err != nil || col <= 0 {
		return "", 0, 0, false
	}
	return file, ln, col, true
}

// EscapeKey aggregates records to the granularity the baseline pins:
// per package, per file, per diagnostic kind. Line numbers are kept out
// of the key so pure line shifts (an edit above an unchanged escape)
// do not invalidate the baseline; the count per file still catches
// every added escape.
type EscapeKey struct {
	Pkg  string
	File string
	Kind string
}

// CountEscapes folds records into per-(pkg, file, kind) counts.
func CountEscapes(recs []EscapeRecord) map[EscapeKey]int {
	out := make(map[EscapeKey]int)
	for _, r := range recs {
		out[EscapeKey{Pkg: r.Pkg, File: r.File, Kind: r.Kind}]++
	}
	return out
}

// WriteEscapeBaseline writes counts in the format ReadEscapeBaseline
// parses — "pkg file kind count", sorted for stable diffs.
func WriteEscapeBaseline(w io.Writer, counts map[EscapeKey]int) error {
	lines := make([]string, 0, len(counts))
	for k, n := range counts {
		lines = append(lines, fmt.Sprintf("%s %s %s %d", k.Pkg, k.File, k.Kind, n))
	}
	return writeBaseline(w, "Per-file heap-escape counts from `go build -gcflags='-m -m'` over the\n"+
		"hot packages. CI fails if a file gains escapes. Regenerate with:\n"+
		"make escape-update (mdgratchet escape -update).", lines)
}

// ReadEscapeBaseline parses a baseline file: one "pkg file kind count"
// quadruple per line, '#' comments and blank lines ignored.
func ReadEscapeBaseline(r io.Reader) (map[EscapeKey]int, error) {
	out := make(map[EscapeKey]int)
	err := readBaseline(r, "escape baseline", "pkg file kind count", func(f []string) error {
		if f[2] != KindEscapes && f[2] != KindMoved {
			return fmt.Errorf("unknown kind %q", f[2])
		}
		n, err := strconv.Atoi(f[3])
		if err != nil || n < 0 {
			return fmt.Errorf("bad count %q", f[3])
		}
		out[EscapeKey{Pkg: f[0], File: f[1], Kind: f[2]}] = n
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CompareEscapes diffs measured records against the committed baseline
// and returns one message per regression (sorted; nil when the baseline
// holds). A regression is a (pkg, file, kind) whose measured count
// exceeds its baseline count, including files the baseline has never
// seen. Counts below baseline pass — the next -update ratchets them
// down. Messages cite the measured lines so the offending sites are a
// jump-to-file away.
func CompareEscapes(got []EscapeRecord, baseline map[EscapeKey]int) []string {
	counts := CountEscapes(got)
	lines := make(map[EscapeKey][]int)
	for _, r := range got {
		k := EscapeKey{Pkg: r.Pkg, File: r.File, Kind: r.Kind}
		lines[k] = append(lines[k], r.Line)
	}
	keys := make([]EscapeKey, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Kind < b.Kind
	})
	var bad []string
	for _, k := range keys {
		allowed := baseline[k]
		if counts[k] <= allowed {
			continue
		}
		ls := lines[k]
		sort.Ints(ls)
		cites := make([]string, len(ls))
		for i, l := range ls {
			cites[i] = strconv.Itoa(l)
		}
		bad = append(bad, fmt.Sprintf("%s/%s: %d %s site(s), baseline allows %d (lines %s)",
			k.Pkg, k.File, counts[k], k.Kind, allowed, strings.Join(cites, ", ")))
	}
	return bad
}
