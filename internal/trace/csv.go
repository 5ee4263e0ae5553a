package trace

import (
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
	Events  []Event // absolute slots; valid until emit returns
	EndSlot int     // exclusive day-section end, (day+1)*1440
}

// csvBlockSize is the capacity of each of the stream's two block buffers.
// A line longer than a block grows the buffer that holds it. A round of the
// pass scans one block, so the block is large enough that starting a
// round's helper (about 80 µs on a 2-core VM) is small beside the scan
// (about 250 µs for the ingest-store CSV's 256 KiB).
const csvBlockSize = 256 << 10

// csvStream is the streaming Azure-schema row reader shared by ReadCSV and
// IngestCSV: one pass, O(functions) state (metadata and per-function day
// counters, never event series), with all schema validation — field
// counts, trigger spellings, count ranges, header column order, duplicate
// rows, and cross-section owner/trigger consistency — applied row by row
// with positional errors.
//
// The pass has two parts. The block scan (scanBlock) reads whole lines
// into one of two block buffers the stream owns and parses each line on
// its own: it counts the cells and records the non-zero day cells and the
// first cell that spells no count, and it reads no other line and no
// stream state. The in-order stage (consume) does everything else: header
// and section handling, trigger parsing, the duplicate, owner and trigger
// checks, line counting, the day base, and every error message, a cell's
// included, which it formats only after the checks that precede it. So a
// scanned block's rows are checked exactly as if each were parsed when it
// is reached. The two parts run as one Overlap, scan first: the scan
// readies the next block in one buffer while the in-order stage consumes
// the current block out of the other.
//
// The scan accepts exactly the language encoding/csv accepts with its
// defaults (comma ',', no comment character, strict quotes, blank lines
// skipped). A line with no '"' and no '\r' is one record whose cells are
// the line split at ',', which is what encoding/csv makes of it; the scan
// walks its day cells without splitting them (scanDays). The first line
// outside that skeleton, and the rest of the input after it, go to an
// encoding/csv.Reader, whose parse errors are shifted by the physical
// lines the scan consumed before it, so every error names the line
// encoding/csv alone would name. The reference this is held to is the
// encoding/csv-only stream in csv_ref_test.go.
type csvStream struct {
	r      io.Reader
	blocks [2]csvBlock
	emit   func(csvRecord) error

	physical int         // lines the scan consumed, blank ones included
	cr       *csv.Reader // set once the input left the scan's skeleton
	copied   []byte      // cr's current record, copied

	// The current record, valid until the next one: nfields cells, of
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
	events  []Event // the encoding/csv path's per-row buffer
}

// csvBlock is one block buffer and what the scan recorded of it.
type csvBlock struct {
	buf      []byte // input; buf[:n] was read
	n        int
	tail     int       // buf[tail:n] is a line the next block finishes
	lines    []csvLine // the block's non-blank lines, in order
	events   []Event   // the lines' non-zero day cells, Slot the cell index
	physical int       // lines scanned, blank ones included
	rest     int       // when >= 0, buf[rest:n] opens with a line outside the skeleton
	err      error     // how the input ended after buf[:n], or nil
	meta     [][]byte  // the scan's scratch for a line's first cells
}

// last reports whether no block follows b.
func (b *csvBlock) last() bool { return b.rest >= 0 || b.err != nil }

// csvLine is what the scan records of one line: where it lies, its cell
// count, its non-zero day cells, and the first day cell that spells no
// count (bad; -1 when every cell does) with the verdict on it.
type csvLine struct {
	at, end   int // the line in the block's buf, without its '\n'
	nfields   int
	ev, evEnd int // the line's events in the block's events
	bad       int
	badN      int   // the bad cell's value, when it is out of range
	badErr    error // strconv's error, or errCountRange
}

// errCountRange marks a count outside [0, MaxInt32]: the schema's counts
// are non-negative minute totals, and silently wrapping a negative or
// int32-overflowing value would fabricate a different workload.
var errCountRange = errors.New("count out of range")

func newCSVStream(r io.Reader) *csvStream {
	return &csvStream{r: r, funcs: make(map[string]*csvFuncState)}
}

// run feeds every data row to emit in row order, or stops at the first
// error: the stream's own, with its position, or emit's, as emit returned
// it. Header rows are consumed internally: each one after the first opens
// a new day section.
func (s *csvStream) run(emit func(csvRecord) error) error {
	s.emit = emit
	s.scanBlock(&s.blocks[0], nil)
	// Block k opens with the other block's unfinished last line, which is
	// all the scan reads of the block being consumed. The scan is the
	// longer stage, so it goes first.
	err := Overlap(2, false, func(k int) bool {
		prev := &s.blocks[k^1]
		if prev.last() {
			return false
		}
		s.scanBlock(&s.blocks[k], prev.buf[prev.tail:prev.n])
		return true
	}, func(k int) error { return s.consume(&s.blocks[k]) })
	if err != nil || s.cr == nil {
		return err
	}
	for {
		rec, err := s.cr.Read()
		if err == io.EOF {
			return nil
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
		if err := s.record(nil, nil); err != nil {
			return err
		}
	}
}

// consume runs the in-order stage over a scanned block: each line's
// record, then, on the last block, the switch to encoding/csv or the read
// error the input ended with.
func (s *csvStream) consume(b *csvBlock) error {
	for i := range b.lines {
		l := &b.lines[i]
		s.fields, s.days, _ = splitMeta(s.fields[:0], b.buf[l.at:l.end])
		s.nfields = l.nfields
		if err := s.record(l, b); err != nil {
			return err
		}
	}
	s.physical += b.physical
	switch {
	case b.rest >= 0:
		// The line goes to encoding/csv, and so does what follows it: the
		// rest of the block, then the input, or how it ended.
		in := s.r
		if b.err != nil {
			in = errReader{b.err}
		}
		s.cr = csv.NewReader(io.MultiReader(bytes.NewReader(b.buf[b.rest:b.n]), in))
		s.cr.FieldsPerRecord = -1 // validated manually for a better error message
	case b.err != nil && b.err != io.EOF:
		return fmt.Errorf("trace: reading CSV: %w", b.err)
	}
	return nil
}

// errReader returns err from every Read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// scanBlock reads the input into b after carry, the previous block's
// unfinished line, up to b's end, and records every whole line it holds.
// The scan stops at the first line holding '"' or '\r' (b.rest) and at the
// end of the input or a read error (b.err); a line the block does not
// finish is left for the next one (b.tail). It reads no stream state but
// s.r.
func (s *csvStream) scanBlock(b *csvBlock, carry []byte) {
	b.lines, b.events, b.physical, b.rest, b.err = b.lines[:0], b.events[:0], 0, -1, nil
	if len(b.buf) < max(csvBlockSize, 2*len(carry)) {
		b.buf = make([]byte, max(csvBlockSize, 2*len(carry)))
	}
	b.n = copy(b.buf, carry)
	end := 0 // lines end at or before end
	for {
		b.n, b.err = fill(s.r, b.buf, b.n)
		if b.err == io.EOF {
			end = b.n // the last line needs no '\n'
			break
		}
		end = bytes.LastIndexByte(b.buf[:b.n], '\n') + 1
		if end > 0 || b.err != nil {
			break
		}
		// A full block without a line end: a line longer than the block.
		grown := make([]byte, 2*len(b.buf))
		copy(grown, b.buf[:b.n])
		b.buf = grown
	}
	if b.events == nil {
		// One event per 6 bytes read: the densest 256 KiB of the
		// ingest-store CSV holds 41.9 k, so no block of it grows the slice.
		b.events = make([]Event, 0, b.n/6)
	}
	b.tail = end
	for at := 0; at < end; {
		stop := end
		if i := bytes.IndexByte(b.buf[at:end], '\n'); i >= 0 {
			stop = at + i
		}
		line := b.buf[at:stop]
		if bytes.IndexByte(line, '"') >= 0 || bytes.IndexByte(line, '\r') >= 0 {
			b.rest = at
			return
		}
		b.physical++
		if len(line) > 0 { // a blank line, which encoding/csv skips, has no record
			b.scanLine(line, at)
		}
		at = stop + 1
	}
}

// fill reads r into buf[n:] until buf is full or r fails, and returns the
// new n and r's error, io.EOF included. Like bufio, it gives up with
// io.ErrNoProgress after 100 reads in a row that return nothing.
func fill(r io.Reader, buf []byte, n int) (int, error) {
	for empty := 0; n < len(buf); {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
		if m > 0 {
			empty = 0
		} else if empty++; empty == 100 {
			return n, io.ErrNoProgress
		}
	}
	return n, nil
}

// splitMeta appends a line's first four cells to fields and returns the
// rest of the line, its day cells joined by ','. A line of fewer than five
// cells appends them all and reports !ok.
func splitMeta(fields [][]byte, line []byte) ([][]byte, []byte, bool) {
	for len(fields) < 4 {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			return append(fields, line), nil, false
		}
		fields = append(fields, line[:i])
		line = line[i+1:]
	}
	return fields, line, true
}

// scanLine records one line of b.buf starting at offset at. A header row's
// day cells are labels, so they are counted, not parsed.
func (b *csvBlock) scanLine(line []byte, at int) {
	l := csvLine{at: at, end: at + len(line), ev: len(b.events), bad: -1}
	var days []byte
	var ok bool
	b.meta, days, ok = splitMeta(b.meta[:0], line)
	switch {
	case !ok:
		l.nfields = len(b.meta)
	case string(b.meta[0]) == "HashOwner":
		l.nfields = 5 + bytes.Count(days, []byte{','})
	default:
		l.nfields = 4 + b.scanDays(days, &l)
	}
	l.evEnd = len(b.events)
	b.lines = append(b.lines, l)
}

// A word of day cells read little-endian: zeroCells is "0,0,0,0,", and a
// word w holds four one-character cells when w&oddBytes == fourCommas.
// zeroCell is "0," read as a little-endian uint16.
const (
	zeroCells  = 0x2c302c302c302c30
	oddBytes   = 0xff00ff00ff00ff00
	fourCommas = 0x2c002c002c002c00
	zeroCell   = 0x2c30
)

// scanDays appends the events of a line's day cells, still joined by ',',
// with the cell index as the slot, and returns the cell count. Nearly
// every Azure cell is one digit, most of them "0", so the cells are walked
// a word of four one-character cells at a time, then "d," two bytes at a
// time; a longer cell of up to nine digits is parsed as it is walked, like
// smallCount, and any other cell goes to cellCount. Past the first bad
// cell, which it records in l, it only counts cells.
func (b *csvBlock) scanDays(days []byte, l *csvLine) int {
	evs := b.events
	for p, i := 0, 0; ; i++ {
		for p+8 <= len(days) {
			w := binary.LittleEndian.Uint64(days[p:])
			if w == zeroCells {
				p, i = p+8, i+4
				continue
			}
			if w&oddBytes != fourCommas {
				break
			}
			d0, d1, d2, d3 := byte(w)-'0', byte(w>>16)-'0', byte(w>>32)-'0', byte(w>>48)-'0'
			if d0 > 9 || d1 > 9 || d2 > 9 || d3 > 9 {
				break
			}
			if d0 != 0 {
				evs = append(evs, Event{Slot: int32(i), Count: int32(d0)})
			}
			if d1 != 0 {
				evs = append(evs, Event{Slot: int32(i + 1), Count: int32(d1)})
			}
			if d2 != 0 {
				evs = append(evs, Event{Slot: int32(i + 2), Count: int32(d2)})
			}
			if d3 != 0 {
				evs = append(evs, Event{Slot: int32(i + 3), Count: int32(d3)})
			}
			p, i = p+8, i+4
		}
		for p+2 <= len(days) {
			w := binary.LittleEndian.Uint16(days[p:])
			if w == zeroCell {
				p, i = p+2, i+1
				continue
			}
			d := byte(w) - '0'
			if w>>8 != ',' || d > 9 {
				break
			}
			evs = append(evs, Event{Slot: int32(i), Count: int32(d)})
			p, i = p+2, i+1
		}
		start, n, digits := p, 0, true
		for ; p < len(days) && days[p] != ','; p++ {
			d := days[p] - '0'
			digits = digits && d <= 9
			n = n*10 + int(d)
		}
		if !digits || p-start > 9 {
			var err error
			if n, err = cellCount(days[start:p]); err != nil {
				b.events = evs
				l.bad, l.badN, l.badErr = i, n, err
				return i + 1 + bytes.Count(days[p:], []byte{','})
			}
		}
		if n > 0 {
			evs = append(evs, Event{Slot: int32(i), Count: int32(n)})
		}
		if p == len(days) {
			b.events = evs
			return i + 1
		}
		p++
	}
}

// cellCount is the count a day cell spells; "" spells 0. A cell that is
// not an integer returns strconv.Atoi's error, and one outside [0,
// MaxInt32] its value and errCountRange.
func cellCount(cell []byte) (int, error) {
	if n, ok := smallCount(cell); ok || len(cell) == 0 {
		return n, nil
	}
	n, err := strconv.Atoi(string(cell))
	if err != nil {
		return 0, err
	}
	if n < 0 || n > math.MaxInt32 {
		return n, errCountRange
	}
	return n, nil
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

// record is the in-order stage's step for the current record: a header
// row validates and opens a section, a data row is checked and emitted.
// A scanned record's day cells come from the scan (l in block b); an
// encoding/csv record's (l nil) are parsed here.
func (s *csvStream) record(l *csvLine, b *csvBlock) error {
	s.line++
	if string(s.fields[0]) == "HashOwner" {
		if err := s.validateHeader(); err != nil {
			return err
		}
		if s.started {
			s.section++
		}
		s.started = true
		return nil
	}
	s.started = true
	if s.nfields != 4+slotsPerDay {
		return fmt.Errorf("trace: CSV line %d has %d fields, want %d", s.line, s.nfields, 4+slotsPerDay)
	}
	rec := s.fields
	trig, err := csvTrigger(rec[3])
	if err != nil {
		return fmt.Errorf("trace: CSV line %d: %w", s.line, err)
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
			return fmt.Errorf("trace: CSV line %d: duplicate row for function (app=%s, func=%s) in day section %d (previous at line %d)",
				s.line, rec[1], rec[2], s.section+1, st.lastLine)
		}
		if st.user != string(rec[0]) {
			return fmt.Errorf("trace: CSV line %d: function (app=%s, func=%s) owner %q contradicts %q at line %d",
				s.line, rec[1], rec[2], rec[0], st.user, st.lastLine)
		}
		if st.trigger != trig {
			return fmt.Errorf("trace: CSV line %d: function (app=%s, func=%s) trigger %q contradicts %q at line %d",
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

	if l != nil {
		if l.bad >= 0 {
			return s.cellError(l.bad, l.badN, l.badErr)
		}
		out.Events = b.events[l.ev:l.evEnd]
		for k := range out.Events {
			out.Events[k].Slot += base
		}
	} else {
		s.events = s.events[:0]
		for i, cell := range rec[4:] {
			n, err := cellCount(cell)
			if err != nil {
				return s.cellError(i, n, err)
			}
			if n > 0 {
				s.events = append(s.events, Event{Slot: base + int32(i), Count: int32(n)})
			}
		}
		out.Events = s.events
	}
	out.ID, out.EndSlot = st.id, (day+1)*slotsPerDay
	return s.emit(out)
}

// cellError is the error of day cell i (0-based) of the current record,
// which spelled n and failed with err.
func (s *csvStream) cellError(i, n int, err error) error {
	if err == errCountRange {
		return fmt.Errorf("trace: CSV line %d slot %d: count %d outside [0, %d]", s.line, i+1, n, math.MaxInt32)
	}
	return fmt.Errorf("trace: CSV line %d slot %d: %w", s.line, i+1, err)
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
	tr := NewTrace(0)
	err := newCSVStream(r).run(func(row csvRecord) error {
		if row.New {
			tr.AddFunction(row.Name, row.App, row.User, row.Trigger, nil)
		}
		if len(row.Events) > 0 {
			tr.Series[row.ID] = append(tr.Series[row.ID], row.Events...)
		}
		if row.EndSlot > tr.Slots {
			tr.Slots = row.EndSlot
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Restore Series invariants after raw appends.
	for i := range tr.Series {
		tr.Series[i] = normalize(tr.Series[i])
	}
	return tr, nil
}
