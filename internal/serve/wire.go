package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// The wire codec: the only encoder and decoder of the two shapes on the hot
// path — a Batch line (request body, journal payload) and a Reply line.
//
// The appenders write exactly the bytes json.Marshal would, so the protocol
// and the journal format are what they were when encoding/json wrote them.
//
// The decoders are a scanner over the integer skeleton of a line — the keys
// they name below with canonical integers, true/false, and arrays of those,
// in any order and with any insignificant whitespace. They are sound, not
// complete: whatever the scanner does not recognise (an unknown, case-folded,
// escaped or repeated key, a string or object value, null, a fraction or
// exponent, a pair that is not two integers, an integer that overflows its
// field) makes it give up, and the line is decoded by json.Unmarshal into a
// zeroed target instead. The accepted language, the decoded value and the
// error text are therefore encoding/json's, always.

// appendBatch appends b's JSON to dst.
func appendBatch(dst []byte, b *Batch) []byte {
	dst = strconv.AppendUint(append(dst, `{"seq":`...), b.Seq, 10)
	dst = strconv.AppendInt(append(dst, `,"slot":`...), int64(b.Slot), 10)
	if len(b.Admit) > 0 {
		dst = append(dst, `,"admit":`...)
		for i := range b.Admit {
			a := &b.Admit[i]
			dst = appendString(append(sep(dst, i), `{"name":`...), a.Name)
			dst = appendString(append(dst, `,"app":`...), a.App)
			dst = appendString(append(dst, `,"user":`...), a.User)
			dst = strconv.AppendUint(append(dst, `,"trigger":`...), uint64(a.Trigger), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(b.Events) > 0 {
		dst = append(dst, `,"events":`...)
		for i, ev := range b.Events {
			dst = strconv.AppendInt(append(sep(dst, i), '['), ev[0], 10)
			dst = strconv.AppendInt(append(dst, ','), ev[1], 10)
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendReply appends r's JSON to dst.
func appendReply(dst []byte, r *Reply) []byte {
	dst = strconv.AppendUint(append(dst, `{"seq":`...), r.Seq, 10)
	dst = strconv.AppendInt(append(dst, `,"slot":`...), int64(r.Slot), 10)
	dst = strconv.AppendBool(append(dst, `,"applied":`...), r.Applied)
	if r.Duplicate {
		dst = append(dst, `,"duplicate":true`...)
	}
	if r.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if r.Policy != "" {
		dst = appendString(append(dst, `,"policy":`...), r.Policy)
	}
	if r.Keepalive != 0 {
		dst = strconv.AppendInt(append(dst, `,"keepalive":`...), int64(r.Keepalive), 10)
	}
	dst = appendInts(dst, `,"admitted":`, r.Admitted)
	dst = appendInts(dst, `,"cold":`, r.Cold)
	dst = appendInts(dst, `,"flips":`, r.Flips)
	dst = strconv.AppendInt(append(dst, `,"loaded":`...), int64(r.Loaded), 10)
	if r.Error != "" {
		dst = appendString(append(dst, `,"error":`...), r.Error)
	}
	return append(dst, '}')
}

// appendInts appends an omitempty integer-list member.
func appendInts(dst []byte, key string, list []int64) []byte {
	if len(list) == 0 {
		return dst
	}
	dst = append(dst, key...)
	for i, v := range list {
		dst = strconv.AppendInt(sep(dst, i), v, 10)
	}
	return append(dst, ']')
}

// sep opens a JSON array before element 0 and separates the later ones.
func sep(dst []byte, i int) []byte {
	if i == 0 {
		return append(dst, '[')
	}
	return append(dst, ',')
}

// appendString appends s as encoding/json quotes it (HTML-safe escapes,
// U+2028/9, U+FFFD for invalid UTF-8). Strings ride only on admissions,
// degraded replies and rejections, so the escaper stays the stdlib's.
func appendString(dst []byte, s string) []byte {
	q, _ := json.Marshal(s) // cannot fail for a string
	return append(dst, q...)
}

// maxEvents bounds the event pairs a Batch line of n bytes can hold: "[0,1],"
// is the shortest. A decodeBatch arena with that much room does not grow.
func maxEvents(n int) int { return n / 6 }

// decodeBatch decodes one Batch line into *b, overwriting it. The events are
// appended to arena, whose grown value is returned: b.Events aliases it until
// the caller reuses that memory (a line that fell back to encoding/json owns
// its events instead).
func decodeBatch(line []byte, b *Batch, arena []EventPair) ([]EventPair, error) {
	s := scan{p: line}
	*b = Batch{}
	out := arena
	s.expect('{')
	for more := true; more && !s.bad; more = s.more('}') {
		switch string(s.key()) {
		case "seq":
			s.once(0)
			b.Seq = s.uint()
		case "slot":
			s.once(1)
			b.Slot = s.int()
		case "events":
			s.once(2)
			s.expect('[')
			start := len(out)
			for more := !s.eat(']'); more && !s.bad; more = s.more(']') {
				s.expect('[')
				fid := s.int64()
				s.expect(',')
				out = append(out, EventPair{fid, s.int64()})
				s.expect(']')
			}
			b.Events = out[start:len(out):len(out)]
			if len(b.Events) == 0 {
				b.Events = []EventPair{} // "events":[] is empty, not absent
			}
		default:
			s.bad = true
		}
	}
	if s.end() {
		return out, nil
	}
	*b = Batch{}
	return arena, json.Unmarshal(line, b)
}

// decodeReply decodes one Reply line into *r, overwriting it. The integer
// lists are appended to arena, whose grown value is returned, and alias it
// like decodeBatch's events; an absent list stays nil.
func decodeReply(line []byte, r *Reply, arena []int64) ([]int64, error) {
	s := scan{p: line}
	*r = Reply{}
	out := arena
	s.expect('{')
	for more := true; more && !s.bad; more = s.more('}') {
		switch string(s.key()) {
		case "seq":
			s.once(0)
			r.Seq = s.uint()
		case "slot":
			s.once(1)
			r.Slot = s.int()
		case "applied":
			s.once(2)
			r.Applied = s.bool()
		case "duplicate":
			s.once(3)
			r.Duplicate = s.bool()
		case "degraded":
			s.once(4)
			r.Degraded = s.bool()
		case "keepalive":
			s.once(5)
			r.Keepalive = s.int()
		case "admitted":
			s.once(6)
			r.Admitted, out = s.ints(out)
		case "cold":
			s.once(7)
			r.Cold, out = s.ints(out)
		case "flips":
			s.once(8)
			r.Flips, out = s.ints(out)
		case "loaded":
			s.once(9)
			r.Loaded = s.int()
		default:
			s.bad = true
		}
	}
	if s.end() {
		return out, nil
	}
	*r = Reply{}
	return arena, json.Unmarshal(line, r)
}

// scan is a cursor over one line. A method that meets anything outside the
// skeleton sets bad; from then on every method is a no-op returning zero, so
// a decoder tests once, in end.
type scan struct {
	p    []byte
	i    int
	bad  bool
	seen uint // one bit per member key met so far
}

func (s *scan) ws() {
	for s.i < len(s.p) && (s.p[s.i] == ' ' || s.p[s.i] == '\t' || s.p[s.i] == '\r' || s.p[s.i] == '\n') {
		s.i++
	}
}

// eat skips whitespace and consumes c if it is next.
func (s *scan) eat(c byte) bool {
	s.ws()
	if s.bad || s.i == len(s.p) || s.p[s.i] != c {
		return false
	}
	s.i++
	return true
}

func (s *scan) expect(c byte) {
	if !s.eat(c) {
		s.bad = true
	}
}

// more is called after an object member or array element: a comma means
// another follows, anything but the closer is bad.
func (s *scan) more(closer byte) bool {
	if s.eat(',') {
		return true
	}
	s.expect(closer)
	return false
}

// end reports whether the whole line was one recognised value.
func (s *scan) end() bool {
	s.ws()
	return !s.bad && s.i == len(s.p)
}

// key consumes `"name":` and returns name's raw bytes. A key holding an
// escape comes back cut at the escaped quote or with its backslash, so it
// matches no field name and the caller gives up.
func (s *scan) key() []byte {
	s.expect('"')
	n := bytes.IndexByte(s.p[s.i:], '"')
	if s.bad || n < 0 {
		s.bad = true
		return nil
	}
	k := s.p[s.i : s.i+n]
	s.i += n + 1
	s.expect(':')
	return k
}

// once marks a key seen; the second sighting is bad (encoding/json merges
// repeated members in ways the scanner does not reproduce).
func (s *scan) once(member uint) {
	if s.seen&(1<<member) != 0 {
		s.bad = true
	}
	s.seen |= 1 << member
}

// digits consumes a canonical non-negative integer at the cursor: "0", or a
// non-zero digit followed by digits ("01" is bad). What follows it is the
// caller's to check, which is how "1.5" and "1e3" end up bad.
func (s *scan) digits() uint64 {
	start := s.i
	var v uint64
	for ; s.i < len(s.p) && '0' <= s.p[s.i] && s.p[s.i] <= '9'; s.i++ {
		d := uint64(s.p[s.i] - '0')
		if v > (math.MaxUint64-d)/10 || (v == 0 && s.i > start) {
			s.bad = true
			return 0
		}
		v = v*10 + d
	}
	if s.bad || s.i == start {
		s.bad = true
		return 0
	}
	return v
}

func (s *scan) uint() uint64 {
	s.ws()
	return s.digits()
}

func (s *scan) int64() int64 {
	neg := s.eat('-') // whitespace may precede the sign, not follow it
	switch v := s.digits(); {
	case neg && v <= 1<<63:
		return -int64(v)
	case !neg && v <= math.MaxInt64:
		return int64(v)
	}
	s.bad = true
	return 0
}

func (s *scan) int() int {
	v := s.int64()
	if int64(int(v)) != v {
		s.bad = true
		return 0
	}
	return int(v)
}

func (s *scan) bool() bool {
	s.ws()
	switch rest := s.p[s.i:]; {
	case s.bad:
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false
	}
	s.bad = true
	return false
}

// ints consumes an integer array, appending to arena. The list is cut from
// the arena with its capacity clipped, and is empty but non-nil for "[]".
func (s *scan) ints(arena []int64) (list, grown []int64) {
	s.expect('[')
	start := len(arena)
	for more := !s.eat(']'); more && !s.bad; more = s.more(']') {
		arena = append(arena, s.int64())
	}
	if len(arena) == start {
		return []int64{}, arena
	}
	return arena[start:len(arena):len(arena)], arena
}
