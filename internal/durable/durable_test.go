package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// shortFS reports every write in full but keeps only n bytes of it, or
// reports the short count honestly when lie is false.
type shortFS struct {
	OS
	keep int
	lie  bool
}

type shortFile struct {
	File
	fs *shortFS
}

func (fs *shortFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := fs.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &shortFile{f, fs}, nil
}

func (f *shortFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p[:f.fs.keep])
	if f.fs.lie {
		n = len(p)
	}
	return n, err
}

func TestCommitIsAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	if err := Commit(OS{}, dir, "entry", ".tmp-x-*", []byte("first")); err != nil {
		t.Fatal(err)
	}
	// An honest short write fails the commit, leaves the old file and no
	// temp file behind.
	if err := Commit(&shortFS{keep: 2}, dir, "entry", ".tmp-x-*", []byte("second")); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write: err %v, want io.ErrShortWrite", err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "entry")); string(got) != "first" {
		t.Fatalf("failed commit disturbed the live file: %q", got)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("failed commit left %d files, want 1", len(ents))
	}
	// A lying disk gets its half-file published; that is the sealed
	// envelope's job to catch.
	sealed := NewEnc("MAGIC", 0)
	sealed.Str("payload")
	if err := Commit(&shortFS{keep: 6, lie: true}, dir, "entry", ".tmp-x-*", sealed.Seal()); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(filepath.Join(dir, "entry"))
	if _, err := Unseal(got, "MAGIC"); err == nil {
		t.Fatal("half-written envelope verified")
	}
}

func TestCursorRoundTripAndBounds(t *testing.T) {
	e := NewEnc("HDR", 0)
	e.U8(7)
	e.U32(1 << 31)
	e.U64(1 << 63)
	e.I64(-5)
	e.F64(1.25)
	e.Bool(true)
	e.Str("héllo")
	e.Ints([]int{3, -1, 4})
	e.Ints(nil)
	e.Dict([]string{"a", "b", "a", "a"})
	e.Dict([]string{})
	body, err := Unseal(e.Seal(), "HDR")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDec(body)
	if d.U8() != 7 || d.U32() != 1<<31 || d.U64() != 1<<63 || d.I64() != -5 || d.F64() != 1.25 || !d.Bool() || d.Str() != "héllo" {
		t.Fatal("scalar round trip")
	}
	if got := d.Ints(); len(got) != 3 || got[1] != -1 {
		t.Fatalf("Ints = %v", got)
	}
	if got := d.Ints(); got != nil {
		t.Fatalf("empty Ints = %v, want nil", got)
	}
	if got := d.Dict(); len(got) != 4 || got[0] != "a" || got[1] != "b" || got[3] != "a" {
		t.Fatalf("Dict = %v", got)
	}
	if got := d.Dict(); got == nil || len(got) != 0 {
		t.Fatalf("empty Dict = %v, want empty non-nil", got)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}

	// Dict reads only the canonical form Enc.Dict writes: a repeated label,
	// an unused entry or an index that skips ahead each fail.
	for name, col := range map[string][]byte{
		"repeated label": {2, 0, 0, 0, 1, 0, 0, 0, 'a', 1, 0, 0, 0, 'a', 2, 0, 0, 0, 0, 1},
		"unused entry":   {2, 0, 0, 0, 1, 0, 0, 0, 'a', 1, 0, 0, 0, 'b', 2, 0, 0, 0, 0, 0},
		"skipped entry":  {2, 0, 0, 0, 1, 0, 0, 0, 'a', 1, 0, 0, 0, 'b', 2, 0, 0, 0, 1, 0},
	} {
		if got := NewDec(col).Dict(); got != nil {
			t.Errorf("%s: Dict = %q, want an error", name, got)
		}
	}

	// DictSize is exactly what Dict appends, at every index width.
	wide := make([]string, 70000)
	for i := range wide {
		wide[i] = strconv.Itoa(i % 69000)
	}
	for _, labels := range [][]string{nil, {"a", "b", "a", "a"}, wide[:300], wide} {
		e := NewEnc("", 0)
		e.Dict(labels)
		if len(e.B) != DictSize(labels) {
			t.Errorf("Dict of %d labels appended %d bytes, DictSize says %d", len(labels), len(e.B), DictSize(labels))
		}
	}

	// The latch: after the first failure every read is zero and Done keeps
	// the first error.
	d = NewDec([]byte{1, 2})
	if d.U32() != 0 || d.U8() != 0 || d.Err() == nil {
		t.Fatal("read past the end did not latch")
	}
	// Count divides: a claim that would overflow a multiplication is still
	// refused, and so is one the remaining bytes cannot hold.
	for _, claim := range []int64{1 << 61, 1 << 62, -1, 3} {
		d = NewDec(make([]byte, 16))
		if n := d.Count(claim, 8); n != 0 || d.Err() == nil {
			t.Errorf("Count(%d, 8) over 16 bytes = %d, err %v", claim, n, d.Err())
		}
	}
	if d = NewDec(make([]byte, 16)); d.Count(2, 8) != 2 || d.Err() != nil {
		t.Error("Count(2, 8) over 16 bytes refused")
	}
	if d = NewDec([]byte{1}); d.Done() == nil {
		t.Error("Done accepted trailing bytes")
	}
}

func TestRecordLinesAndLogHeal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	var seen []string
	scan := func(data []byte) (keep int) {
		seen = seen[:0]
		for keep < len(data) {
			line, n := NextLine(data[keep:])
			payload, ok := ParseLine(line)
			if !ok {
				break
			}
			seen = append(seen, string(payload))
			keep += n
		}
		return keep
	}
	f, err := OpenLog(OS{}, path, scan)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"one", "", "three {json}"} {
		if _, err := f.Write(AppendLine(nil, []byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	intact, _ := os.ReadFile(path)

	os.WriteFile(path, append(bytes.Clone(intact), "deadbeef torn"...), 0o644)
	f, err = OpenLog(OS{}, path, scan)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if len(seen) != 3 || seen[0] != "one" || seen[1] != "" || seen[2] != "three {json}" {
		t.Fatalf("replayed %q", seen)
	}
	if healed, _ := os.ReadFile(path); !bytes.Equal(healed, intact) {
		t.Fatalf("torn tail not cut off: %q", healed)
	}

	line := bytes.TrimSuffix(AppendLine(nil, []byte("payload")), []byte("\n"))
	for name, bad := range map[string][]byte{
		"torn":           nil,
		"short":          line[:8],
		"no space":       bytes.Replace(line, []byte(" "), []byte("_"), 1),
		"upper-case hex": bytes.ToUpper(line[:8]),
		"flipped digit":  append([]byte{line[0] ^ 1}, line[1:]...),
		"flipped byte":   append(bytes.Clone(line[:len(line)-1]), line[len(line)-1]^0x20),
	} {
		if _, ok := ParseLine(bad); ok {
			t.Errorf("%s line accepted: %q", name, bad)
		}
	}
}
