package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// CSV I/O compatible with the Microsoft Azure Functions 2019 trace schema
// ("invocations_per_function_md.anon.dXX.csv"): one row per function per
// day, columns HashOwner, HashApp, HashFunction, Trigger, then 1440
// per-minute invocation counts ("1".."1440").
//
// The reproduction's generator writes this format so the real trace can be
// dropped in unchanged. Day files are concatenated the way the public
// dataset ships them — each day section opens with its own header row —
// and the reader treats header rows as day-section delimiters: within one
// section a function may appear at most once (a repeat is a corrupt
// duplicate, rejected with a positional error), across sections its rows
// accumulate day after day. Header rows themselves are validated: the day
// columns must be exactly "1".."1440" in order, because a reordered header
// would silently permute every function's minutes.

const slotsPerDay = 1440

// WriteCSV writes the trace as day-partitioned Azure-schema CSV to w, one
// day section after another, each opened by its own header row — the shape
// `cat d01.csv d02.csv ...` of the public dataset produces. Days with no
// invocations for a function still get a row of zeros, as in the original
// files.
func WriteCSV(w io.Writer, tr *Trace) error {
	cw := csv.NewWriter(w)
	header := make([]string, 4+slotsPerDay)
	header[0], header[1], header[2], header[3] = "HashOwner", "HashApp", "HashFunction", "Trigger"
	for i := 0; i < slotsPerDay; i++ {
		header[4+i] = strconv.Itoa(i + 1)
	}

	days := (tr.Slots + slotsPerDay - 1) / slotsPerDay
	row := make([]string, 4+slotsPerDay)
	for day := 0; day < days; day++ {
		if err := cw.Write(header); err != nil {
			return fmt.Errorf("trace: writing CSV header: %w", err)
		}
		lo := int32(day * slotsPerDay)
		hi := lo + slotsPerDay
		for fid, f := range tr.Functions {
			row[0], row[1], row[2], row[3] = f.User, f.App, f.Name, f.Trigger.String()
			for i := 0; i < slotsPerDay; i++ {
				row[4+i] = "0"
			}
			for _, e := range tr.Series[fid] {
				if e.Slot >= lo && e.Slot < hi {
					row[4+int(e.Slot-lo)] = strconv.Itoa(int(e.Count))
				}
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("trace: writing CSV row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// csvFuncState tracks one function across the stream's day sections.
type csvFuncState struct {
	id          FuncID
	user        string
	trigger     Trigger
	days        int // day sections contributed so far
	lastSection int // section of the most recent appearance
	lastLine    int // line of the most recent appearance
}

// csvRecord is one parsed data row: the function it belongs to (New marks the
// first appearance, where the caller should record the metadata) and the
// row's events with absolute slots (the day base already applied).
type csvRecord struct {
	ID      FuncID
	New     bool
	Name    string // Name, App and User are set on the first appearance only
	App     string
	User    string
	Trigger Trigger
	Events  []Event // absolute slots; valid until the next call
	EndSlot int     // exclusive day-section end, (day+1)*1440
}

// csvStream is the streaming Azure-schema row reader shared by ReadCSV and
// IngestCSV: one pass, O(functions) state (metadata and per-function day
// counters, never event series), with all schema validation — field
// counts, trigger spellings, count ranges, header column order, duplicate
// rows, and cross-section owner/trigger consistency — applied row by row
// with positional errors.
//
// Records come from a byte-level scanner that accepts exactly the language
// encoding/csv accepts with its defaults (comma ',', no comment character,
// strict quotes, blank lines skipped). A line with no '"' and no '\r' is one
// record whose cells are the line split at ',', which is what encoding/csv
// makes of it. The scanner reads such a line in place, in the reader's
// buffer: it splits off the four metadata cells, walks the day cells
// without splitting them, skipping runs of "0" a word at a time, and
// allocates nothing per row. The first line outside that skeleton, and the
// rest of the input after it, go to an encoding/csv.Reader, whose parse
// errors are shifted by the physical lines the scanner consumed before it, so
// every error names the line encoding/csv alone would name. The reference
// this is held to is the encoding/csv-only stream in csv_ref_test.go.
type csvStream struct {
	br       *bufio.Reader
	long     []byte      // a line longer than br's buffer, reassembled
	physical int         // lines the scanner consumed, blank ones included
	cr       *csv.Reader // set once the input left the scanner's skeleton
	copied   []byte      // cr's current record, copied

	// The current record, valid until the next read: nfields cells, of
	// which fields holds the first. A scanned record's day cells stay in
	// days, joined by ',', until splitDays moves them into fields.
	fields  [][]byte
	days    []byte
	nfields int

	scratch []byte // map keys and expected header labels
	line    int    // records read, as encoding/csv counts them
	section int
	started bool // a header or data row has been consumed
	funcs   map[string]*csvFuncState
	nextID  FuncID
	events  []Event // reused per-row buffer
}

func newCSVStream(r io.Reader) *csvStream {
	return &csvStream{br: bufio.NewReaderSize(r, 64<<10), funcs: make(map[string]*csvFuncState)}
}

// read loads the next record into s.fields, or returns io.EOF.
func (s *csvStream) read() error {
	for s.cr == nil {
		line, err := s.readLine()
		if err != nil {
			if err == io.EOF {
				return io.EOF
			}
			return fmt.Errorf("trace: reading CSV: %w", err)
		}
		if bytes.IndexByte(line, '"') >= 0 || bytes.IndexByte(line, '\r') >= 0 {
			s.cr = csv.NewReader(io.MultiReader(bytes.NewReader(bytes.Clone(line)), s.br))
			s.cr.FieldsPerRecord = -1 // validated manually for a better error message
			break
		}
		s.physical++
		line = bytes.TrimSuffix(line, []byte{'\n'})
		if len(line) == 0 {
			continue // a blank line, which encoding/csv skips
		}
		s.fields = s.fields[:0]
		for len(s.fields) < 4 {
			i := bytes.IndexByte(line, ',')
			if i < 0 {
				break
			}
			s.fields = append(s.fields, line[:i])
			line = line[i+1:]
		}
		if len(s.fields) == 4 {
			s.days, s.nfields = line, 5+bytes.Count(line, []byte{','})
		} else {
			s.fields = append(s.fields, line)
			s.nfields = len(s.fields)
		}
		return nil
	}

	rec, err := s.cr.Read()
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			pe.StartLine += s.physical
			pe.Line += s.physical
		}
		return fmt.Errorf("trace: reading CSV: %w", err)
	}
	s.copied = s.copied[:0]
	for _, f := range rec {
		s.copied = append(s.copied, f...)
	}
	s.fields = s.fields[:0]
	at := 0
	for _, f := range rec {
		s.fields = append(s.fields, s.copied[at:at+len(f)])
		at += len(f)
	}
	s.nfields = len(s.fields)
	return nil
}

// splitDays moves a scanned record's day cells into s.fields.
func (s *csvStream) splitDays() {
	if len(s.fields) == s.nfields {
		return
	}
	days := s.days
	for {
		i := bytes.IndexByte(days, ',')
		if i < 0 {
			break
		}
		s.fields = append(s.fields, days[:i])
		days = days[i+1:]
	}
	s.fields = append(s.fields, days)
}

// readLine returns the next physical line with its '\n' (none on a last
// line without one), or io.EOF once no bytes remain. A line longer than the
// reader's buffer is reassembled in s.long. The line is valid until the next
// call.
func (s *csvStream) readLine() ([]byte, error) {
	line, err := s.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		s.long = append(s.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = s.br.ReadSlice('\n')
			s.long = append(s.long, line...)
		}
		line = s.long
	}
	if err == io.EOF && len(line) > 0 {
		err = nil
	}
	return line, err
}

// validateHeader checks a header row column by column: the day columns must
// be exactly "1".."1440" in ascending order. An out-of-order or mislabeled
// day column would silently permute every row's minutes, so it is rejected
// with the column position.
func (s *csvStream) validateHeader() error {
	s.splitDays()
	rec := s.fields
	if len(rec) != 4+slotsPerDay {
		return fmt.Errorf("trace: CSV line %d: header has %d fields, want %d", s.line, len(rec), 4+slotsPerDay)
	}
	for i, cell := range rec[4:] {
		s.scratch = strconv.AppendInt(s.scratch[:0], int64(i+1), 10)
		if !bytes.Equal(cell, s.scratch) {
			return fmt.Errorf("trace: CSV line %d: day column %d is %q, want %q (out-of-order or corrupt header)",
				s.line, i+1, cell, s.scratch)
		}
	}
	return nil
}

// Next returns the next data row, or io.EOF at the end of the stream.
// Header rows are consumed internally: each one after the first opens a new
// day section.
func (s *csvStream) Next() (csvRecord, error) {
	for {
		if err := s.read(); err != nil {
			return csvRecord{}, err
		}
		s.line++
		if string(s.fields[0]) == "HashOwner" {
			if err := s.validateHeader(); err != nil {
				return csvRecord{}, err
			}
			if s.started {
				s.section++
			}
			s.started = true
			continue
		}
		return s.dataRow()
	}
}

func (s *csvStream) dataRow() (csvRecord, error) {
	s.started = true
	if s.nfields != 4+slotsPerDay {
		return csvRecord{}, fmt.Errorf("trace: CSV line %d has %d fields, want %d", s.line, s.nfields, 4+slotsPerDay)
	}
	rec := s.fields
	trig, err := csvTrigger(rec[3])
	if err != nil {
		return csvRecord{}, fmt.Errorf("trace: CSV line %d: %w", s.line, err)
	}
	// The key is (app, function hash): in the Azure schema an application
	// belongs to exactly one owner, so two rows sharing the key but naming
	// different owners are corrupt input, not two functions. The app's
	// length prefix keeps the concatenation unambiguous.
	s.scratch = binary.AppendUvarint(s.scratch[:0], uint64(len(rec[1])))
	s.scratch = append(append(s.scratch, rec[1]...), rec[2]...)
	st, ok := s.funcs[string(s.scratch)]
	out := csvRecord{New: !ok, Trigger: trig}
	if ok {
		// A function reappearing inside the SAME day section is a duplicate
		// row, and last-write-wins (or accumulate-within-a-day) would
		// fabricate a different workload; reappearing with a different owner
		// or trigger contradicts the schema (one owner per app, one trigger
		// binding per function hash).
		if st.lastSection == s.section {
			return csvRecord{}, fmt.Errorf("trace: CSV line %d: duplicate row for function (app=%s, func=%s) in day section %d (previous at line %d)",
				s.line, rec[1], rec[2], s.section+1, st.lastLine)
		}
		if st.user != string(rec[0]) {
			return csvRecord{}, fmt.Errorf("trace: CSV line %d: function (app=%s, func=%s) owner %q contradicts %q at line %d",
				s.line, rec[1], rec[2], rec[0], st.user, st.lastLine)
		}
		if st.trigger != trig {
			return csvRecord{}, fmt.Errorf("trace: CSV line %d: function (app=%s, func=%s) trigger %q contradicts %q at line %d",
				s.line, rec[1], rec[2], trig, st.trigger, st.lastLine)
		}
	} else {
		// The only strings a function costs, made once at their exact size.
		out.Name, out.App, out.User = string(rec[2]), string(rec[1]), string(rec[0])
		st = &csvFuncState{id: s.nextID, user: out.User, trigger: trig}
		s.nextID++
		s.funcs[string(s.scratch)] = st
	}
	day := st.days
	st.days++
	st.lastSection = s.section
	st.lastLine = s.line
	base := int32(day * slotsPerDay)

	s.events = s.events[:0]
	if len(rec) < s.nfields {
		err = s.scanDays(base)
	} else {
		for i, cell := range rec[4:] {
			if err = s.addCount(base, i, cell); err != nil {
				break
			}
		}
	}
	if err != nil {
		return csvRecord{}, err
	}
	out.ID, out.Events, out.EndSlot = st.id, s.events, (day+1)*slotsPerDay
	return out, nil
}

// zeroCells is "0,0,0,0," read as a little-endian word: four zero cells.
const zeroCells = 0x2c302c302c302c30

// scanDays adds the events of a scanned record's day cells, which are still
// joined by ',' in s.days. Runs of zero cells, most of any Azure row, are
// skipped a word at a time.
func (s *csvStream) scanDays(base int32) error {
	days := s.days
	for i := 0; ; i++ {
		for len(days) >= 8 && binary.LittleEndian.Uint64(days) == zeroCells {
			days, i = days[8:], i+4
		}
		end := 0
		for end < len(days) && days[end] != ',' {
			end++
		}
		if err := s.addCount(base, i, days[:end]); err != nil {
			return err
		}
		if end == len(days) {
			return nil
		}
		days = days[end+1:]
	}
}

// addCount appends the event that day cell i (0-based) spells, if any. "0"
// and "" spell none.
func (s *csvStream) addCount(base int32, i int, cell []byte) error {
	if len(cell) == 0 || len(cell) == 1 && cell[0] == '0' {
		return nil
	}
	n, ok := smallCount(cell)
	if !ok {
		var err error
		if n, err = strconv.Atoi(string(cell)); err != nil {
			return fmt.Errorf("trace: CSV line %d slot %d: %w", s.line, i+1, err)
		}
		if n < 0 || n > math.MaxInt32 {
			// The schema's counts are non-negative minute totals; a
			// negative or int32-overflowing value is corrupt input, and
			// silently wrapping it would fabricate a different workload.
			return fmt.Errorf("trace: CSV line %d slot %d: count %d outside [0, %d]", s.line, i+1, n, math.MaxInt32)
		}
	}
	if n > 0 {
		s.events = append(s.events, Event{Slot: base + int32(i), Count: int32(n)})
	}
	return nil
}

// smallCount parses a cell of one to nine ASCII digits, the spelling of
// nearly every non-zero count. Such a value cannot leave [0, MaxInt32] and
// is what strconv.Atoi makes of the cell; any other cell reports !ok and is
// left to strconv.Atoi, values and error text included.
func smallCount(cell []byte) (n int, ok bool) {
	if len(cell) == 0 || len(cell) > 9 {
		return 0, false
	}
	for _, c := range cell {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// csvTrigger is ParseTrigger over a cell, converting it to a string only to
// report an unknown spelling.
func csvTrigger(cell []byte) (Trigger, error) {
	for i, name := range triggerNames {
		if string(cell) == name {
			return Trigger(i), nil
		}
	}
	return ParseTrigger(string(cell))
}

// ReadCSV parses one or more concatenated Azure-schema day files from r
// into a materialized Trace. Header rows delimit day sections: a function's
// n-th appearance contributes slots [n*1440, (n+1)*1440), and appearing
// twice within one section — or with an inconsistent owner or trigger — is
// rejected with a positional error (see csvStream). For traces too large
// to materialize, use IngestCSV, which makes the same single pass but
// spills to an on-disk columnar shard store.
func ReadCSV(r io.Reader) (*Trace, error) {
	st := newCSVStream(r)
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
		if len(row.Events) > 0 {
			tr.Series[row.ID] = append(tr.Series[row.ID], row.Events...)
		}
		if row.EndSlot > tr.Slots {
			tr.Slots = row.EndSlot
		}
	}

	// Restore Series invariants after raw appends.
	for i := range tr.Series {
		tr.Series[i] = normalize(tr.Series[i])
	}
	return tr, nil
}
