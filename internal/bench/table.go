// Package bench regenerates the paper's evaluation: every experiment
// E1–E17 documented in DESIGN.md and EXPERIMENTS.md is a function that
// sweeps the relevant parameter, runs repeated seeded trials, and returns
// a Table whose rows mirror the corresponding figure's series. cmd/mdgbench
// prints the tables; root-level testing.B benchmarks wrap the same
// functions so `go test -bench` regenerates everything.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes the table in RFC-4180 CSV form (header row first) for
// external plotting tools.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMarkdown writes the table as a GitHub-flavoured markdown section:
// a heading, the table, and the notes as a footnote list. `mdgbench
// -format md` stitches these into a full reproduction report.
func (t *Table) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if len(t.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range t.Notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// f1 formats a float (of any float64-underlying dimension) with one
// decimal.
func f1[F ~float64](v F) string { return fmt.Sprintf("%.1f", float64(v)) }

// f2 formats a float with two decimals.
func f2[F ~float64](v F) string { return fmt.Sprintf("%.2f", float64(v)) }

// exact formats a float in its shortest round-trip form: parsing the
// cell gives back the value's every bit.
func exact[F ~float64](v F) string { return strconv.FormatFloat(float64(v), 'f', -1, 64) }

// d formats an int (of any int-underlying dimension, e.g. sim.Rounds).
func d[I ~int](v I) string { return fmt.Sprintf("%d", int(v)) }

// ratio formats a/b as "x.xx×". Both operands must carry the same
// dimension, which is exactly what makes the quotient dimensionless.
func ratio[F ~float64](a, b F) string {
	//mdglint:ignore floateq zero-guard before division; any non-zero denominator is formattable
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(a)/float64(b))
}
