package trace

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	tr := NewTrace(2 * slotsPerDay)
	tr.AddFunction("f0", "appA", "u1", TriggerHTTP,
		[]Event{{Slot: 0, Count: 3}, {Slot: 1439, Count: 1}, {Slot: 1440, Count: 7}})
	tr.AddFunction("f1", "appA", "u1", TriggerTimer,
		[]Event{{Slot: 2000, Count: 2}})
	tr.AddFunction("f2", "appB", "u2", TriggerQueue, nil) // never invoked

	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.NumFunctions() != 3 {
		t.Fatalf("functions = %d, want 3", back.NumFunctions())
	}
	if back.Slots != tr.Slots {
		t.Fatalf("slots = %d, want %d", back.Slots, tr.Slots)
	}
	for i := range tr.Series {
		// Identify the matching function by name (order may differ).
		var match FuncID = -1
		for j, f := range back.Functions {
			if f.Name == tr.Functions[i].Name {
				match = FuncID(j)
				break
			}
		}
		if match < 0 {
			t.Fatalf("function %s missing after round trip", tr.Functions[i].Name)
		}
		if !reflect.DeepEqual(back.Series[match], tr.Series[i]) {
			t.Errorf("series %s = %v, want %v", tr.Functions[i].Name, back.Series[match], tr.Series[i])
		}
		if back.Functions[match].Trigger != tr.Functions[i].Trigger {
			t.Errorf("trigger mismatch for %s", tr.Functions[i].Name)
		}
		if back.Functions[match].App != tr.Functions[i].App || back.Functions[match].User != tr.Functions[i].User {
			t.Errorf("metadata mismatch for %s", tr.Functions[i].Name)
		}
	}
}

func TestReadCSVRepeatedHeader(t *testing.T) {
	// Concatenated day files repeat the header; the reader must skip it.
	tr := NewTrace(slotsPerDay)
	tr.AddFunction("f0", "a", "u", TriggerHTTP, []Event{{Slot: 5, Count: 1}})
	var day bytes.Buffer
	if err := WriteCSV(&day, tr); err != nil {
		t.Fatal(err)
	}
	doubled := day.String() + day.String() // two identical day files
	back, err := ReadCSV(strings.NewReader(doubled))
	if err != nil {
		t.Fatalf("ReadCSV concatenated: %v", err)
	}
	if back.Slots != 2*slotsPerDay {
		t.Errorf("slots = %d, want %d", back.Slots, 2*slotsPerDay)
	}
	want := Series{{Slot: 5, Count: 1}, {Slot: slotsPerDay + 5, Count: 1}}
	if !reflect.DeepEqual(back.Series[0], want) {
		t.Errorf("series = %v, want %v", back.Series[0], want)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("u,a,f,http,1,2\n")); err == nil {
		t.Error("short row should fail")
	}
	longRow := "u,a,f,badtrigger" + strings.Repeat(",0", slotsPerDay) + "\n"
	if _, err := ReadCSV(strings.NewReader(longRow)); err == nil {
		t.Error("bad trigger should fail")
	}
	badCount := "u,a,f,http" + strings.Repeat(",0", slotsPerDay-1) + ",xyz\n"
	if _, err := ReadCSV(strings.NewReader(badCount)); err == nil {
		t.Error("non-numeric count should fail")
	}
}

func TestReadCSVEmpty(t *testing.T) {
	tr, err := ReadCSV(strings.NewReader(""))
	if err != nil {
		t.Fatalf("empty input: %v", err)
	}
	if tr.NumFunctions() != 0 || tr.Slots != 0 {
		t.Errorf("empty trace = %d funcs, %d slots", tr.NumFunctions(), tr.Slots)
	}
}

func TestCSVGeneratedRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("round-tripping a generated trace is slow")
	}
	tr := genSmall(t, 120, 2, 21)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalInvocations() != tr.TotalInvocations() {
		t.Errorf("invocations = %d, want %d", back.TotalInvocations(), tr.TotalInvocations())
	}
	if back.NumFunctions() != tr.NumFunctions() {
		t.Errorf("functions = %d, want %d", back.NumFunctions(), tr.NumFunctions())
	}
}

// csvRow renders one schema row with the given counts placed at the given
// slots (all others zero).
func csvRow(user, app, fn, trig string, counts map[int]string) string {
	fields := []string{user, app, fn, trig}
	for i := 0; i < slotsPerDay; i++ {
		if v, ok := counts[i]; ok {
			fields = append(fields, v)
		} else {
			fields = append(fields, "0")
		}
	}
	return strings.Join(fields, ",") + "\n"
}

// TestReadCSVTruncatedRows asserts rows cut short — mid-file after valid
// rows, by a missing tail of columns, or by EOF inside a quoted field —
// come back as errors naming the line, never as a silently shortened trace.
func TestReadCSVTruncatedRows(t *testing.T) {
	valid := csvRow("u1", "a1", "f1", "http", map[int]string{3: "2"})
	cases := map[string]string{
		"missing columns":   valid + "u2,a2,f2,http,1,2,3\n",
		"one column short":  valid + strings.TrimSuffix(csvRow("u2", "a2", "f2", "http", nil), ",0\n") + "\n",
		"eof inside quotes": valid + `u3,a3,"f3`,
		"extra column":      valid + strings.TrimSuffix(csvRow("u2", "a2", "f2", "http", nil), "\n") + ",0\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadCSVBadTriggers asserts unknown trigger spellings fail: the
// trigger names are an exact lowercase vocabulary, and guessing at a
// near-miss would misclassify the function population.
func TestReadCSVBadTriggers(t *testing.T) {
	for _, trig := range []string{"HTTP", "Timer", "", "cron", " http"} {
		in := csvRow("u", "a", "f", trig, map[int]string{0: "1"})
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("trigger %q: accepted", trig)
		}
	}
}

// TestReadCSVOutOfRangeCounts asserts per-minute counts outside [0,
// MaxInt32] are rejected rather than wrapped into a fabricated workload,
// while explicit zeros remain non-events.
func TestReadCSVOutOfRangeCounts(t *testing.T) {
	for _, v := range []string{"-3", "4294967296", "2147483648"} {
		in := csvRow("u", "a", "f", "http", map[int]string{7: v})
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("count %s: accepted", v)
		}
	}
	in := csvRow("u", "a", "f", "http", map[int]string{7: "0", 9: "2147483647"})
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatalf("max int32 count rejected: %v", err)
	}
	want := Series{{Slot: 9, Count: 2147483647}}
	if !reflect.DeepEqual(tr.Series[0], want) {
		t.Errorf("series = %v, want %v", tr.Series[0], want)
	}
}

// TestCSVRoundTripPadsPartialDays documents the write-side day padding: a
// trace whose horizon is not a whole number of days comes back with Slots
// rounded up to one (the schema is day-partitioned), with every event
// preserved.
func TestCSVRoundTripPadsPartialDays(t *testing.T) {
	tr := NewTrace(1500) // 1 day + 60 minutes
	tr.AddFunction("f0", "a", "u", TriggerHTTP, []Event{{Slot: 1499, Count: 4}})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Slots != 2*slotsPerDay {
		t.Errorf("slots = %d, want %d (rounded up to whole days)", back.Slots, 2*slotsPerDay)
	}
	if !reflect.DeepEqual(back.Series[0], tr.Series[0]) {
		t.Errorf("series = %v, want %v", back.Series[0], tr.Series[0])
	}
}

// TestCSVScenarioRoundTrip asserts a scenario-transformed generated trace
// survives the CSV round trip — examples/azurereplay consumes scenario
// traces through this path.
func TestCSVScenarioRoundTrip(t *testing.T) {
	cfg := DefaultGeneratorConfig(80, 2, 5)
	sc, err := NamedScenario("churn", slotsPerDay, 2*slotsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 5
	cfg.Scenario = sc
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalInvocations() != tr.TotalInvocations() || back.NumFunctions() != tr.NumFunctions() {
		t.Errorf("round trip: %d funcs / %d invocations, want %d / %d",
			back.NumFunctions(), back.TotalInvocations(), tr.NumFunctions(), tr.TotalInvocations())
	}
}

// TestReadCSVDuplicateRows asserts a function appearing twice within one
// day section — with or without an explicit header — is rejected with a
// positional error instead of silently accumulating or last-write-winning.
func TestReadCSVDuplicateRows(t *testing.T) {
	dup := csvRow("u", "a", "f", "http", map[int]string{1: "2"}) +
		csvRow("u", "a", "f", "http", map[int]string{5: "3"})
	_, err := ReadCSV(strings.NewReader(dup))
	if err == nil {
		t.Fatal("duplicate row accepted")
	}
	if !strings.Contains(err.Error(), "duplicate") || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q should name the duplicate and its line", err)
	}

	// The same repetition across two header-delimited day sections is the
	// normal concatenated-day-files shape and must keep working.
	tr := NewTrace(slotsPerDay)
	tr.AddFunction("f", "a", "u", TriggerHTTP, []Event{{Slot: 1, Count: 2}})
	var day bytes.Buffer
	if err := WriteCSV(&day, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCSV(strings.NewReader(day.String() + day.String())); err != nil {
		t.Errorf("cross-section repetition rejected: %v", err)
	}
}

// TestReadCSVInconsistentMetadata asserts a function whose owner or trigger
// changes between day sections is rejected: the schema binds one owner per
// app and one trigger per function hash, so a change is corrupt input.
func TestReadCSVInconsistentMetadata(t *testing.T) {
	tr := NewTrace(slotsPerDay)
	tr.AddFunction("f", "a", "u1", TriggerHTTP, []Event{{Slot: 1, Count: 2}})
	var day bytes.Buffer
	if err := WriteCSV(&day, tr); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(day.String(), "\n", 2)[0] + "\n"

	owner := day.String() + header + csvRow("u2", "a", "f", "http", nil)
	if _, err := ReadCSV(strings.NewReader(owner)); err == nil || !strings.Contains(err.Error(), "owner") {
		t.Errorf("owner change: err = %v, want owner contradiction", err)
	}
	trig := day.String() + header + csvRow("u1", "a", "f", "timer", nil)
	if _, err := ReadCSV(strings.NewReader(trig)); err == nil || !strings.Contains(err.Error(), "trigger") {
		t.Errorf("trigger change: err = %v, want trigger contradiction", err)
	}
}

// TestReadCSVDialect pins what encoding/csv makes of input the Azure files
// do not use but a hand-edited or re-exported file may: CRLF line endings,
// blank lines between rows, quoted cells (read through the encoding/csv
// switch) and a line longer than the scanner's blocks. Each reads as the
// same trace as the plain file, and as the reference reads it.
func TestReadCSVDialect(t *testing.T) {
	tr := NewTrace(2 * slotsPerDay)
	tr.AddFunction("f0", "appA", "u1", TriggerHTTP, []Event{{Slot: 0, Count: 3}, {Slot: 1500, Count: 7}})
	tr.AddFunction("f1", "appB", "u2", TriggerTimer, []Event{{Slot: 1439, Count: 1}})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	plain := buf.String()
	row := csvRow("u1", "appA", "f0", "http", map[int]string{0: "3"})
	quoted := `"u1","appA","f0","http"` + strings.TrimPrefix(row, "u1,appA,f0,http")
	for name, in := range map[string]string{
		"crlf":        strings.ReplaceAll(plain, "\n", "\r\n"),
		"blank lines": strings.ReplaceAll(plain, "\n", "\n\n"),
		"quoted row":  strings.Replace(plain, row, quoted, 1),
	} {
		if in == plain {
			t.Fatalf("%s: input is the plain file", name)
		}
		got := assertReadCSVMatchesReference(t, []byte(in))
		if got == nil || !reflect.DeepEqual(got.Series, tr.Series) || !reflect.DeepEqual(got.Functions, tr.Functions) {
			t.Errorf("%s: read a different trace than the plain file", name)
		}
	}

	// Blank lines are not records: the duplicate-row error counts records.
	dup := row + "\n\n" + row
	if _, err := ReadCSV(strings.NewReader(dup)); err == nil || !strings.Contains(err.Error(), "CSV line 2: duplicate") {
		t.Errorf("duplicate after blank lines: err = %v, want one naming record line 2", err)
	}

	// A line longer than two blocks, starting mid-block: the block after
	// the one it starts in is made for it, then grown.
	name := strings.Repeat("f", 2*csvBlockSize+(70<<10))
	long := row + csvRow("u", "a", name, "http", map[int]string{9: "4"}) + strings.Replace(row, "f0", "f1", 1)
	if got := assertReadCSVMatchesReference(t, []byte(long)); got == nil || got.Functions[1].Name != name {
		t.Error("a line longer than the scanner's blocks was not read whole")
	}
}

// TestReadCSVOutOfOrderHeader asserts header day columns must be exactly
// "1".."1440" in order: a permuted or mislabeled header would silently
// permute every row's minutes, so it is rejected naming the column.
func TestReadCSVOutOfOrderHeader(t *testing.T) {
	fields := []string{"HashOwner", "HashApp", "HashFunction", "Trigger"}
	for i := 1; i <= slotsPerDay; i++ {
		fields = append(fields, strconv.Itoa(i))
	}
	fields[4], fields[5] = fields[5], fields[4] // swap day columns 1 and 2
	in := strings.Join(fields, ",") + "\n" + csvRow("u", "a", "f", "http", nil)
	_, err := ReadCSV(strings.NewReader(in))
	if err == nil {
		t.Fatal("out-of-order header accepted")
	}
	if !strings.Contains(err.Error(), "day column 1") {
		t.Errorf("error %q should name the first bad column", err)
	}

	short := strings.Join(fields[:10], ",") + "\n"
	if _, err := ReadCSV(strings.NewReader(short)); err == nil {
		t.Error("short header accepted")
	}
}
