package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func manifestKeys(n int) []shardKey {
	keys := make([]shardKey, n)
	for i := range keys {
		keys[i] = shardKey{policy: "SPES v1", config: 0x1000 + uint64(i), trace: 77, slots: 1440}
	}
	return keys
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	m, err := OpenSweepManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := manifestKeys(3)
	for _, k := range keys {
		m.record(k)
	}
	m.record(keys[0]) // idempotent
	if m.Units() != 3 {
		t.Errorf("Units = %d after 3 distinct records, want 3", m.Units())
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := OpenSweepManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Recovered() != 3 || re.Dropped() != 0 {
		t.Errorf("reopen recovered %d / dropped %d, want 3 / 0", re.Recovered(), re.Dropped())
	}
	for _, k := range keys {
		if !re.has(k) {
			t.Errorf("reopened manifest missing %+v", k)
		}
	}
	if re.has(shardKey{policy: "other", config: 1, trace: 2, slots: 3}) {
		t.Error("reopened manifest claims a never-recorded key")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != 3 {
		t.Errorf("journal has %d lines, want 3 (idempotent record appended twice?)", got)
	}
}

// Torn trailing lines (a killed writer), corrupted bytes, and foreign
// garbage must all drop silently — their units re-simulate — without
// poisoning the valid records around them.
func TestManifestIgnoresTornAndCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	m, err := OpenSweepManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := manifestKeys(2)
	for _, k := range keys {
		m.record(k)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	valid := formatManifestLine(shardKey{policy: "p", config: 9, trace: 9, slots: 9})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A flipped checksum digit, foreign garbage, and a torn (SIGKILLed
	// mid-append) record.
	corrupted := valid[:len(valid)-2] + "!\n"
	if _, err := f.WriteString(corrupted + "not a journal line\n" + valid[:len(valid)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenSweepManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Recovered() != 2 {
		t.Errorf("recovered %d valid units, want 2", re.Recovered())
	}
	if re.Dropped() != 3 {
		t.Errorf("dropped %d bad lines, want 3 (corrupt + garbage + torn)", re.Dropped())
	}
	for _, k := range keys {
		if !re.has(k) {
			t.Errorf("valid record %+v lost to surrounding garbage", k)
		}
	}
}

// A record appended after a replay lands after the (possibly torn) tail
// and parses on the next open — append-only recovery must compose.
func TestManifestAppendsAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	keys := manifestKeys(2)

	m, err := OpenSweepManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	m.record(keys[0])
	m.Close()

	// Tear the tail: strip the trailing half of the last line, newline
	// included — what a SIGKILL mid-write leaves.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := OpenSweepManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Recovered() != 0 || m2.Dropped() != 1 {
		t.Fatalf("torn-tail open recovered %d / dropped %d, want 0 / 1", m2.Recovered(), m2.Dropped())
	}
	m2.record(keys[1])
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	m3, err := OpenSweepManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if !m3.has(keys[1]) || m3.Recovered() != 1 {
		t.Errorf("record appended after a torn tail did not survive: recovered %d, has = %v",
			m3.Recovered(), m3.has(keys[1]))
	}
}

func TestManifestLineFormatRejectsMalformations(t *testing.T) {
	key := shardKey{policy: `quoted "policy" name`, config: ^uint64(0), trace: 0, slots: 1}
	line := strings.TrimSuffix(formatManifestLine(key), "\n")
	if got, ok := parseManifestLine(line); !ok || got != key {
		t.Fatalf("round trip failed: got %+v ok=%v", got, ok)
	}
	bad := []string{
		"",
		"u2",
		line[:len(line)-1],                       // truncated payload
		strings.Replace(line, " u2 ", " u1 ", 1), // wrong magic (checksum also breaks)
		strings.Replace(line, `"`, "", 1),        // broken quoting
	}
	for _, b := range bad {
		if _, ok := parseManifestLine(b); ok {
			t.Errorf("malformed line accepted: %q", b)
		}
	}
}
