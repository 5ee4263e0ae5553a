package durable

import (
	"bytes"
	"strings"
)

// The record line every append-only log shares:
//
//	crc32c(payload) as 8 lower-case hex digits, a space, the payload, '\n'
//
// Payloads are text without newlines (JSON, quoted fields). A log is read
// back with NextLine + ParseLine and healed by OpenLog; what a bad line
// means — skip it and carry on, or stop and distrust everything after — is
// the caller's recovery policy.

const hexDigits = "0123456789abcdef"

// AppendLine appends payload's record line to dst.
func AppendLine(dst, payload []byte) []byte {
	sum := Checksum(payload)
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[sum>>shift&0xf])
	}
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// NextLine splits the first line off data: its bytes without the newline,
// and the n bytes it spans with it. A final fragment with no newline — a
// torn tail — yields a nil line spanning the rest of data.
func NextLine(data []byte) (line []byte, n int) {
	if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
		return data[:nl], nl + 1
	}
	return nil, len(data)
}

// ParseLine verifies one record line (as NextLine returns it) and returns
// its payload; ok is false for a torn, malformed or corrupted line.
func ParseLine(line []byte) (payload []byte, ok bool) {
	if len(line) < 9 || line[8] != ' ' {
		return nil, false
	}
	var sum uint32
	for _, c := range line[:8] {
		v := strings.IndexByte(hexDigits, c)
		if v < 0 {
			return nil, false
		}
		sum = sum<<4 | uint32(v)
	}
	payload = line[9:]
	return payload, Checksum(payload) == sum
}
