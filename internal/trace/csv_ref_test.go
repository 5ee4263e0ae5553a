package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// refCSVStream is the reference for csvStream: the same schema validation
// over records from a plain encoding/csv.Reader, one []string per row. It
// pins what the byte-level scanner, its switch to encoding/csv and its line
// offsets must reproduce — the accepted language, every value and every
// error string — not the validation rules themselves.
type refCSVStream struct {
	cr      *csv.Reader
	line    int
	section int
	started bool
	funcs   map[[2]string]*csvFuncState // (app, function hash)
	nextID  FuncID
	events  []Event
}

func newRefCSVStream(r io.Reader) *refCSVStream {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true // a record's strings outlive it; its slice need not
	return &refCSVStream{cr: cr, funcs: make(map[[2]string]*csvFuncState)}
}

func (s *refCSVStream) Next() (csvRecord, error) {
	for {
		rec, err := s.cr.Read()
		if err == io.EOF {
			return csvRecord{}, io.EOF
		}
		if err != nil {
			return csvRecord{}, fmt.Errorf("trace: reading CSV: %w", err)
		}
		s.line++
		if len(rec) > 0 && rec[0] == "HashOwner" {
			if len(rec) != 4+slotsPerDay {
				return csvRecord{}, fmt.Errorf("trace: CSV line %d: header has %d fields, want %d", s.line, len(rec), 4+slotsPerDay)
			}
			for i := 0; i < slotsPerDay; i++ {
				if want := strconv.Itoa(i + 1); rec[4+i] != want {
					return csvRecord{}, fmt.Errorf("trace: CSV line %d: day column %d is %q, want %q (out-of-order or corrupt header)",
						s.line, i+1, rec[4+i], want)
				}
			}
			if s.started {
				s.section++
			}
			s.started = true
			continue
		}
		return s.dataRow(rec)
	}
}

func (s *refCSVStream) dataRow(rec []string) (csvRecord, error) {
	s.started = true
	if len(rec) != 4+slotsPerDay {
		return csvRecord{}, fmt.Errorf("trace: CSV line %d has %d fields, want %d", s.line, len(rec), 4+slotsPerDay)
	}
	trig, err := ParseTrigger(rec[3])
	if err != nil {
		return csvRecord{}, fmt.Errorf("trace: CSV line %d: %w", s.line, err)
	}
	key := [2]string{rec[1], rec[2]}
	st, ok := s.funcs[key]
	if ok {
		if st.lastSection == s.section {
			return csvRecord{}, fmt.Errorf("trace: CSV line %d: duplicate row for function (app=%s, func=%s) in day section %d (previous at line %d)",
				s.line, rec[1], rec[2], s.section+1, st.lastLine)
		}
		if st.user != rec[0] {
			return csvRecord{}, fmt.Errorf("trace: CSV line %d: function (app=%s, func=%s) owner %q contradicts %q at line %d",
				s.line, rec[1], rec[2], rec[0], st.user, st.lastLine)
		}
		if st.trigger != trig {
			return csvRecord{}, fmt.Errorf("trace: CSV line %d: function (app=%s, func=%s) trigger %q contradicts %q at line %d",
				s.line, rec[1], rec[2], trig, st.trigger, st.lastLine)
		}
	} else {
		st = &csvFuncState{id: s.nextID, user: rec[0], trigger: trig}
		s.nextID++
		s.funcs[key] = st
	}
	day := st.days
	st.days++
	st.lastSection = s.section
	st.lastLine = s.line
	base := int32(day * slotsPerDay)

	s.events = s.events[:0]
	for i := 0; i < slotsPerDay; i++ {
		v := rec[4+i]
		if v == "0" || v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return csvRecord{}, fmt.Errorf("trace: CSV line %d slot %d: %w", s.line, i+1, err)
		}
		if n < 0 || n > math.MaxInt32 {
			return csvRecord{}, fmt.Errorf("trace: CSV line %d slot %d: count %d outside [0, %d]", s.line, i+1, n, math.MaxInt32)
		}
		if n == 0 {
			continue
		}
		s.events = append(s.events, Event{Slot: base + int32(i), Count: int32(n)})
	}
	return csvRecord{
		ID: st.id, New: !ok,
		Name: rec[2], App: rec[1], User: rec[0], Trigger: trig,
		Events: s.events, EndSlot: (day + 1) * slotsPerDay,
	}, nil
}

// refReadCSV is ReadCSV over the reference stream.
func refReadCSV(r io.Reader) (*Trace, error) {
	st := newRefCSVStream(r)
	tr := NewTrace(0)
	for {
		row, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if row.New {
			tr.AddFunction(row.Name, row.App, row.User, row.Trigger, nil)
		}
		tr.Series[row.ID] = append(tr.Series[row.ID], row.Events...)
		if row.EndSlot > tr.Slots {
			tr.Slots = row.EndSlot
		}
	}
	for i := range tr.Series {
		tr.Series[i] = normalize(tr.Series[i])
	}
	return tr, nil
}

// assertReadCSVMatchesReference fails unless ReadCSV and the encoding/csv
// reference return the same trace, or errors with the same text.
func assertReadCSVMatchesReference(t *testing.T, in []byte) *Trace {
	t.Helper()
	want, wantErr := refReadCSV(bytes.NewReader(in))
	return assertReadCSVMatches(t, in, want, wantErr)
}

// assertReadCSVMatches fails unless ReadCSV of in returns the trace want,
// or an error with wantErr's text.
func assertReadCSVMatches(t *testing.T, in []byte, want *Trace, wantErr error) *Trace {
	t.Helper()
	got, err := ReadCSV(bytes.NewReader(in))
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("ReadCSV error %v, reference error %v", err, wantErr)
	}
	if err != nil {
		return nil
	}
	if got.Slots != want.Slots || !reflect.DeepEqual(got.Functions, want.Functions) || !reflect.DeepEqual(got.Series, want.Series) {
		t.Fatalf("ReadCSV trace (%d functions, %d slots) differs from the reference's (%d functions, %d slots)",
			got.NumFunctions(), got.Slots, want.NumFunctions(), want.Slots)
	}
	return got
}

// csvHeader renders the schema's header row.
func csvHeader() string {
	fields := []string{"HashOwner", "HashApp", "HashFunction", "Trigger"}
	for i := 1; i <= slotsPerDay; i++ {
		fields = append(fields, strconv.Itoa(i))
	}
	return strings.Join(fields, ",") + "\n"
}

// readCSVSeeds are inputs on both sides of the scanner's skeleton: what it
// scans itself, what it hands to encoding/csv, and where the two meet; two
// span three blocks of the block scan, one switching to encoding/csv in
// the last.
func readCSVSeeds() map[string]string {
	header := csvHeader()
	a := csvRow("u1", "a1", "f1", "http", map[int]string{0: "3", 700: "12"})
	b := csvRow("u2", "a2", "f2", "timer", map[int]string{1439: "1"})
	quoted := `"u3","a3","f3","http"` + strings.TrimPrefix(csvRow("u", "a", "f", "http", map[int]string{5: "2"}), "u,a,f,http")
	permuted := strings.Replace(header, ",1,2,", ",2,1,", 1)
	blocks := blockTestInput()
	blocksQuoted := append([]string(nil), blocks...)
	blocksQuoted[70] = `"` + strings.Replace(blocksQuoted[70], ",", `",`, 1)
	return map[string]string{
		"empty":              "",
		"two days":           header + a + b + header + a + b,
		"no header":          a + b,
		"no final newline":   a + strings.TrimSuffix(b, "\n"),
		"crlf":               strings.ReplaceAll(header+a+b, "\n", "\r\n"),
		"crlf after lf":      header + a + strings.ReplaceAll(b, "\n", "\r\n"),
		"trailing cr at eof": a + strings.TrimSuffix(b, "\n") + "\r",
		"blank lines":        "\n" + header + "\n\n" + a + "\n" + b + "\n",
		"blank line dup":     a + "\n\n" + a,
		"quoted row":         header + a + quoted + b,
		"embedded newline":   a + `"u4` + "\n" + `x",a4,f4,http` + strings.Repeat(",0", slotsPerDay) + "\n" + b,
		"bare quote":         a + "\n" + `u5,a"5,f5,http` + strings.Repeat(",0", slotsPerDay) + "\n",
		"quote mid-record":   a + "\n\n" + `u6,"a6` + "\n" + `"x,f6,http` + strings.Repeat(",0", slotsPerDay) + "\n",
		"eof inside quotes":  a + `u7,a7,"f7`,
		"repeated header":    header + header + a,
		"permuted header":    a + permuted + b,
		"short header":       a + strings.Join(strings.Split(header, ",")[:10], ",") + "\n",
		"short row":          a + "u8,a8,f8,http,1,2\n",
		"plus":               csvRow("u", "a", "f", "http", map[int]string{3: "+5"}),
		"leading zeros":      csvRow("u", "a", "f", "http", map[int]string{3: "007", 4: "000"}),
		"minus zero":         csvRow("u", "a", "f", "http", map[int]string{3: "-0"}),
		"max int32":          csvRow("u", "a", "f", "http", map[int]string{3: "2147483647", 4: "999999999"}),
		"overflow":           csvRow("u", "a", "f", "http", map[int]string{3: "2147483648"}),
		"overlong":           csvRow("u", "a", "f", "http", map[int]string{3: "99999999999999999999"}),
		"not a number":       csvRow("u", "a", "f", "http", map[int]string{3: "xyz"}),
		"bad trigger":        csvRow("u", "a", "f", "HTTP", nil),
		"owner changes":      a + header + strings.Replace(a, "u1", "u9", 1),
		// Three blocks of the block scan, one switching in its last block.
		"three blocks":        strings.Join(blocks, "\n") + "\n",
		"three blocks, quote": strings.Join(blocksQuoted, "\n") + "\n",
		// A one-character non-digit at each lane of a four-cell word.
		"letter at lane 0": csvRow("u", "a", "f", "http", map[int]string{8: "x"}),
		"letter at lane 1": csvRow("u", "a", "f", "http", map[int]string{9: "x"}),
		"letter at lane 2": csvRow("u", "a", "f", "http", map[int]string{10: "x"}),
		"letter at lane 3": csvRow("u", "a", "f", "http", map[int]string{11: "x"}),
		// A bad count on a row that fails an earlier check: the earlier
		// check's error wins.
		"short row, bad count":     a + "u8,a8,f8,http,x\n",
		"bad trigger, bad count":   csvRow("u", "a", "f", "HTTP", map[int]string{3: "xyz"}),
		"duplicate, bad count":     a + csvRow("u1", "a1", "f1", "http", map[int]string{3: "xyz"}),
		"owner changes, bad count": a + header + csvRow("u9", "a1", "f1", "http", map[int]string{3: "-1"}),
	}
}

// FuzzReadCSV holds ReadCSV to the encoding/csv reference: for any input the
// same trace or the same error text, never a panic.
func FuzzReadCSV(f *testing.F) {
	for _, in := range readCSVSeeds() {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		assertReadCSVMatchesReference(t, in)
	})
}
