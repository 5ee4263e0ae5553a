// Package report renders experiment results as text: aligned tables, CDF
// summaries, and ASCII bar charts, so every figure of the paper can be
// regenerated on a terminal.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Table accumulates rows and renders them column-aligned.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// CDFSummary writes the named distribution's quantiles in a single line,
// the textual equivalent of one curve in Figure 8.
func CDFSummary(w io.Writer, name string, xs []float64) {
	if len(xs) == 0 {
		fmt.Fprintf(w, "%-22s (empty)\n", name)
		return
	}
	qs := stats.Quantiles(xs, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0)
	zero := 0
	for _, x := range xs {
		if x == 0 {
			zero++
		}
	}
	fmt.Fprintf(w, "%-22s P25=%.3f P50=%.3f P75=%.3f P90=%.3f P95=%.3f max=%.3f zero=%.1f%%\n",
		name, qs[0], qs[1], qs[2], qs[3], qs[4], qs[5], 100*float64(zero)/float64(len(xs)))
}

// Bar renders a horizontal ASCII bar of value scaled against max into width
// characters.
func Bar(value, max float64, width int) string {
	if max <= 0 || value < 0 {
		return ""
	}
	n := int(value / max * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// BarChart writes labeled horizontal bars for each (label, value), scaled to
// the maximum value, preserving input order.
func BarChart(w io.Writer, title string, labels []string, values []float64) {
	fmt.Fprintln(w, title)
	max := 0.0
	wlab := 0
	for i, v := range values {
		if v > max {
			max = v
		}
		if len(labels[i]) > wlab {
			wlab = len(labels[i])
		}
	}
	for i, v := range values {
		fmt.Fprintf(w, "  %s  %8.4f  %s\n", pad(labels[i], wlab), v, Bar(v, max, 40))
	}
}

// SortedKeys returns a map's keys sorted lexicographically (stable rendering
// of per-type breakdowns).
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Sparkline draws a 1-line unicode sparkline of xs (used for the concept
// shift and temporal locality figure dumps).
func Sparkline(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	min, max := stats.MinMax(xs)
	span := max - min
	var b strings.Builder
	for _, x := range xs {
		idx := 0
		if span > 0 {
			idx = int((x - min) / span * float64(len(levels)-1))
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}
