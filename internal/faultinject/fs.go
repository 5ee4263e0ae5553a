package faultinject

import (
	"path/filepath"

	"repro/internal/durable"
)

// FS is the fault-injecting durable.FS: every operation consults the
// injector's schedule, then (absent a fault) hits the real filesystem.
// Read faults are keyed by the file name, write faults by the content
// being written (temp filenames embed a random component; content is
// stable), rename faults by the destination name — see the package comment
// for why that makes the schedule reproducible under concurrency. Remove and
// Truncate pass straight through (the embedded durable.OS): failing cleanup
// or healing would only mask the fault being tested. A temp file (what
// durable.Commit writes, so every serving snapshot) may also be torn at the
// TornSnapshot rate; an append file (the serving journal) never is.
type FS struct {
	durable.OS
	in *Injector
}

var _ durable.FS = (*FS)(nil)

// FS returns the injector's filesystem seam, for trace.IngestCSVFS /
// OpenStoreFS and serve.Config.FS.
func (in *Injector) FS() *FS { return &FS{in: in} }

// ReadFile implements durable.FS: it may fail with an injected error or
// return a copy of the file with one bit flipped (the checksum on every
// durable file must turn that into an error, never a wrong result).
func (fs *FS) ReadFile(name string) ([]byte, error) {
	base := filepath.Base(name)
	seq := fs.in.next("read:" + base)
	if fs.in.decide("readerr", base, seq, fs.in.cfg.ReadErr) {
		return nil, &Error{Site: "readerr", Subject: base, Seq: seq}
	}
	data, err := fs.OS.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if len(data) > 0 && fs.in.decide("bitflip", base, seq, fs.in.cfg.BitFlip) {
		out := make([]byte, len(data))
		copy(out, data)
		bit := fs.in.roll("bitflip-pos", base, seq)
		out[bit%uint64(len(out))] ^= 1 << (bit % 8)
		return out, nil
	}
	return data, nil
}

// CreateTemp implements durable.FS; the returned file injects write
// faults, torn writes included.
func (fs *FS) CreateTemp(dir, pattern string) (durable.File, error) {
	f, err := fs.OS.CreateTemp(dir, pattern)
	return fs.wrap(f, err, true)
}

// OpenAppend implements durable.FS; the returned file injects write faults
// (a short write here is a record torn mid-append).
func (fs *FS) OpenAppend(name string) (durable.File, error) {
	f, err := fs.OS.OpenAppend(name)
	return fs.wrap(f, err, false)
}

func (fs *FS) wrap(f durable.File, err error, temp bool) (durable.File, error) {
	if err != nil {
		return nil, err
	}
	return &file{File: f, in: fs.in, temp: temp}, nil
}

// Rename implements durable.FS with injected failures, keyed by the
// destination file name.
func (fs *FS) Rename(oldpath, newpath string) error {
	base := filepath.Base(newpath)
	seq := fs.in.next("rename:" + base)
	if fs.in.decide("renameerr", base, seq, fs.in.cfg.RenameErr) {
		return &Error{Site: "renameerr", Subject: base, Seq: seq}
	}
	return fs.OS.Rename(oldpath, newpath)
}

// file wraps a real file with injected write faults.
type file struct {
	durable.File
	in   *Injector
	temp bool // opened by CreateTemp: TornSnapshot applies
}

// Write may fail with an injected error, or lie: report full
// length while persisting only a prefix (a silently-truncating disk, drawn
// as a short write, or as a torn snapshot on a temp file). The lie is only
// discoverable through the file's checksum on a later read — which is
// exactly the path under test. Decisions are keyed by a hash of the
// content, the one stable identity a randomly-named temp file has.
func (w *file) Write(p []byte) (int, error) {
	subject := contentKey(p)
	seq := w.in.next("write:" + subject)
	if w.in.decide("writeerr", subject, seq, w.in.cfg.WriteErr) {
		return 0, &Error{Site: "writeerr", Subject: subject, Seq: seq}
	}
	if len(p) > 1 && (w.in.decide("shortwrite", subject, seq, w.in.cfg.ShortWrite) ||
		w.temp && w.in.decide("tornsnap", subject, seq, w.in.cfg.TornSnapshot)) {
		if _, err := w.File.Write(p[:len(p)/2]); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return w.File.Write(p)
}

// contentKey is the stable write subject: an FNV-1a hash of the bytes,
// hex-ish encoded.
func contentKey(p []byte) string {
	const prime, offset = 1099511628211, 14695981039346656037
	h := uint64(offset)
	for _, b := range p {
		h = (h ^ uint64(b)) * prime
	}
	const hexdigits = "0123456789abcdef"
	var out [16]byte
	for i := range out {
		out[i] = hexdigits[(h>>(60-4*i))&0xf]
	}
	return string(out[:])
}
