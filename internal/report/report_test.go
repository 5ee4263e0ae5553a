package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("Policy", "Q3-CSR")
	tab.AddRow("SPES", "0.108")
	tab.AddRow("short") // padded
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Policy") {
		t.Errorf("header = %q", lines[0])
	}
	// Columns align: "Q3-CSR" starts at the same offset in header and rows.
	col := strings.Index(lines[0], "Q3-CSR")
	if got := strings.Index(lines[2], "0.108"); got != col {
		t.Errorf("column misaligned: %d vs %d", got, col)
	}
}

func TestCDFSummary(t *testing.T) {
	var buf bytes.Buffer
	CDFSummary(&buf, "SPES", []float64{0, 0, 0.5, 1})
	out := buf.String()
	if !strings.Contains(out, "P75=") || !strings.Contains(out, "zero=50.0%") {
		t.Errorf("summary = %q", out)
	}
	buf.Reset()
	CDFSummary(&buf, "empty", nil)
	if !strings.Contains(buf.String(), "(empty)") {
		t.Errorf("empty summary = %q", buf.String())
	}
}

func TestBar(t *testing.T) {
	if got := Bar(5, 10, 10); got != "#####" {
		t.Errorf("Bar = %q", got)
	}
	if got := Bar(20, 10, 10); got != "##########" {
		t.Errorf("Bar clamp = %q", got)
	}
	if got := Bar(1, 0, 10); got != "" {
		t.Errorf("Bar zero-max = %q", got)
	}
	if got := Bar(-1, 10, 10); got != "" {
		t.Errorf("Bar negative = %q", got)
	}
}

func TestBarChart(t *testing.T) {
	var buf bytes.Buffer
	BarChart(&buf, "Memory", []string{"a", "bb"}, []float64{1, 2})
	out := buf.String()
	if !strings.Contains(out, "Memory") || !strings.Contains(out, "bb") {
		t.Errorf("chart = %q", out)
	}
	// The larger value has the longer bar.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if strings.Count(lines[1], "#") >= strings.Count(lines[2], "#") {
		t.Errorf("bars not proportional: %q", out)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	keys := SortedKeys(m)
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Errorf("keys = %v", keys)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	got := Sparkline([]float64{0, 1})
	if len([]rune(got)) != 2 {
		t.Errorf("sparkline runes = %q", got)
	}
	if []rune(got)[0] != '▁' || []rune(got)[1] != '█' {
		t.Errorf("sparkline levels = %q", got)
	}
	flat := Sparkline([]float64{3, 3, 3})
	for _, r := range flat {
		if r != '▁' {
			t.Errorf("flat sparkline = %q", flat)
		}
	}
}
