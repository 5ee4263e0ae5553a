package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// blockTestInput is three day sections of the same 25 functions, each row
// an Azure-shaped line (zero runs, one-digit counts, a few longer ones)
// under a 6 000-byte function name, so that the input spans three blocks
// in few enough rows for the encoding/csv reference to read it quickly,
// and each block edge falls inside a section whose functions all appeared
// in an earlier one.
func blockTestInput() []string {
	var lines []string
	pad := strings.Repeat("x", 6000)
	for sec := 0; sec < 3; sec++ {
		lines = append(lines, strings.TrimSuffix(csvHeader(), "\n"))
		for j := 0; j < 25; j++ {
			counts := map[int]string{
				(j*7 + sec*13) % slotsPerDay: "3",
				(j * 11) % slotsPerDay:       "12",
				(j*29 + 5) % slotsPerDay:     "007",
				(j*31 + 1) % slotsPerDay:     "2147483647",
			}
			for k := 0; k < 12; k++ {
				counts[(j*53+sec*17+k)%slotsPerDay] = fmt.Sprint(1 + (j+k)%9)
			}
			row := csvRow(fmt.Sprintf("u%d", j/3%5), fmt.Sprintf("a%d", j/3), fmt.Sprintf("f%d-%s", j, pad),
				triggerNames[j%len(triggerNames)], counts)
			lines = append(lines, strings.TrimSuffix(row, "\n"))
		}
	}
	return lines
}

// blockEdges returns, for each block after the first, the 0-based
// physical line it begins with: the line the previous block did not
// finish, or the first line after its last one.
func blockEdges(in []byte) []int {
	s := newCSVStream(bytes.NewReader(in))
	var edges []int
	line, k := 0, 0
	s.scanBlock(&s.blocks[0], nil)
	for b := &s.blocks[0]; !b.last(); {
		line += b.physical
		edges = append(edges, line)
		k ^= 1
		next := &s.blocks[k]
		s.scanBlock(next, b.buf[b.tail:b.n])
		b = next
	}
	return edges
}

// setCell returns the CSV line with cell i replaced by v.
func setCell(line string, i int, v string) string {
	cells := strings.Split(line, ",")
	cells[i] = v
	return strings.Join(cells, ",")
}

// TestReadCSVBlockEdges holds the block scan to the encoding/csv reference
// where blocks meet. At every line within two lines of each block edge it
// plants, one at a time, a bad count (non-numeric, out of range), a short
// row, an unknown trigger, a duplicate row, an owner contradiction, a
// mislabeled header, and a quoted, a CRLF and a blank line; the last three
// also with a bare quote at the end of the input, whose ParseError lines
// count every physical line before it. ReadCSV must return the reference's
// trace or its error text at GOMAXPROCS 1 and 2.
func TestReadCSVBlockEdges(t *testing.T) {
	base := blockTestInput()
	join := func(lines []string) []byte { return []byte(strings.Join(lines, "\n") + "\n") }
	edges := blockEdges(join(base))
	if len(edges) < 2 {
		t.Fatalf("the input spans %d blocks, want at least 3", len(edges)+1)
	}
	badHeader := setCell(base[0], 4+5, "7")
	bareQuote := `u9,a"9,f9,http` + strings.Repeat(",0", slotsPerDay)
	plants := map[string]func(lines []string, p int) []string{
		"non-numeric count":   func(l []string, p int) []string { l[p] = setCell(l[p], 4+700, "1x"); return l },
		"out-of-range count":  func(l []string, p int) []string { l[p] = setCell(l[p], 4+3, "2147483648"); return l },
		"short row":           func(l []string, p int) []string { l[p] = "u1,a1,f1,http,1,2"; return l },
		"unknown trigger":     func(l []string, p int) []string { l[p] = setCell(l[p], 3, "HTTP"); return l },
		"duplicate row":       func(l []string, p int) []string { l[p] = l[p-1]; return l },
		"owner contradiction": func(l []string, p int) []string { l[p] = setCell(l[p], 0, "u-other"); return l },
		"mislabeled header":   func(l []string, p int) []string { l[p] = badHeader; return l },
		"quoted line":         func(l []string, p int) []string { l[p] = `"` + strings.Replace(l[p], ",", `",`, 1); return l },
		"crlf line":           func(l []string, p int) []string { l[p] += "\r"; return l },
		"blank line":          func(l []string, p int) []string { return append(l[:p], append([]string{""}, l[p:]...)...) },
		"quoted + bare quote": func(l []string, p int) []string {
			l[p] = `"` + strings.Replace(l[p], ",", `",`, 1)
			return append(l, bareQuote)
		},
		"crlf + bare quote": func(l []string, p int) []string { l[p] += "\r"; return append(l, bareQuote) },
		"blank + bare quote": func(l []string, p int) []string {
			return append(append(l[:p], append([]string{""}, l[p:]...)...), bareQuote)
		},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases, errs := 0, 0
	for _, edge := range edges {
		for p := edge - 2; p <= edge+2; p++ {
			for name, plant := range plants {
				in := join(plant(append([]string(nil), base...), p))
				want, wantErr := refReadCSV(bytes.NewReader(in))
				for _, procs := range []int{1, 2} {
					runtime.GOMAXPROCS(procs)
					t.Run(fmt.Sprintf("%s/line %d/GOMAXPROCS %d", name, p, procs), func(t *testing.T) {
						assertReadCSVMatches(t, in, want, wantErr)
					})
				}
				cases++
				if wantErr != nil {
					errs++
				}
			}
		}
	}
	t.Logf("%d block edges (at lines %v), %d planted inputs, %d of them errors", len(edges), edges, cases, errs)
	if errs == 0 || errs == cases {
		t.Fatalf("%d of %d cases failed: the plants must both fail and pass", errs, cases)
	}
}

// failOnce reads r, then fails once with err, then reads io.EOF.
type failOnce struct {
	r   io.Reader
	err error
}

func (f *failOnce) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF && f.err != nil {
		err, f.err = f.err, nil
	}
	return n, err
}

// TestReadCSVReadError holds a reader that fails once to the reference: the
// rows read before the failure are checked, then the read error is
// returned, cut mid-line or at a line end, in the first block or a later
// one, and before or after the switch to encoding/csv.
func TestReadCSVReadError(t *testing.T) {
	lines := blockTestInput()
	in := []byte(strings.Join(lines, "\n") + "\n")
	quoted := append([]string(nil), lines...)
	quoted[40] = `"` + strings.Replace(quoted[40], ",", `",`, 1)
	inQuoted := []byte(strings.Join(quoted, "\n") + "\n")
	lineEnd := bytes.Index(in[csvBlockSize+1000:], []byte{'\n'}) + csvBlockSize + 1001
	bad := []byte(strings.Join(lines[:3], "\n") + "\n" + setCell(lines[3], 3, "HTTP") + "\n" + strings.Join(lines[4:], "\n"))
	for name, tc := range map[string]struct {
		in  []byte
		cut int
	}{
		"mid-line, first block":    {in, 5000},
		"mid-line, second block":   {in, csvBlockSize + 1000},
		"at a line end":            {in, lineEnd},
		"in the switch's block":    {inQuoted, csvBlockSize + 200_000},
		"after the switch":         {inQuoted, 2*csvBlockSize + 1000},
		"after a bad row":          {bad, csvBlockSize + 1000},
		"at a block's end, no row": {in[:csvBlockSize], csvBlockSize},
	} {
		t.Run(name, func(t *testing.T) {
			r := func() io.Reader { return &failOnce{bytes.NewReader(tc.in[:tc.cut]), errors.New("disk gone")} }
			_, wantErr := refReadCSV(r())
			if wantErr == nil {
				t.Fatal("the reference read past the error")
			}
			_, err := ReadCSV(r())
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("ReadCSV error %v, reference %v", err, wantErr)
			}
		})
	}
}
