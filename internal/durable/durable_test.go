package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spinwave/internal/fleet/faults"
	"spinwave/internal/journal"
)

// errCrash stands in for a process dying inside a write: the code under
// test sees its fill callback fail at that point.
var errCrash = errors.New("simulated crash")

const (
	oldDoc = `{"v":"old"}`
	newDoc = `{"v":"new","pad":"the new content is longer than the old one"}`
)

// loadDoc is the reader every durable store is: it trusts a file only
// when it parses, quarantines it otherwise, and reports a miss.
func loadDoc(path string) (string, bool) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	if !json.Valid(buf) {
		Quarantine(path, "durable.test", errors.New("unparseable"))
		return "", false
	}
	return string(buf), true
}

// scanValid returns the log's lines that parse, through a fresh Log as
// a reopened store would read them.
func scanValid(t *testing.T, path string) []string {
	t.Helper()
	var out []string
	if err := NewLog(path).Scan(func(_ int64, line []byte) {
		if json.Valid(line) {
			out = append(out, string(line))
		}
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// noTempLitter fails if a write left a dot-named temp file behind.
func noTempLitter(t *testing.T, dir string) {
	t.Helper()
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// tearAndCrash writes data into the temp file AtomicWrite hands out,
// tears it with the fault corrupter, and fails — a crash before rename.
func tearAndCrash(t *testing.T, data string) func(io.Writer) error {
	return func(w io.Writer) error {
		io.WriteString(w, data)
		if err := faults.Corrupt(w.(*os.File).Name()); err != nil {
			t.Fatal(err)
		}
		return errCrash
	}
}

// TestCrashConsistencyMatrix tears the file at every write point of the
// three primitives and checks that a reader sees the old content or the
// new one — never a partial file. It is the one crash matrix behind all
// five stores built on this package.
func TestCrashConsistencyMatrix(t *testing.T) {
	t.Run("AtomicWrite/torn before rename", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "doc.json")
		if err := WriteFile(path, []byte(oldDoc)); err != nil {
			t.Fatal(err)
		}
		if err := AtomicWrite(path, tearAndCrash(t, newDoc)); !errors.Is(err, errCrash) {
			t.Fatalf("AtomicWrite = %v, want the crash", err)
		}
		if got, ok := loadDoc(path); !ok || got != oldDoc {
			t.Fatalf("reader saw %q, %t; want the old content", got, ok)
		}
		noTempLitter(t, dir)
	})

	t.Run("AtomicWrite/after rename", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "doc.json")
		for _, doc := range []string{oldDoc, newDoc} {
			if err := WriteFile(path, []byte(doc)); err != nil {
				t.Fatal(err)
			}
			if got, ok := loadDoc(path); !ok || got != doc {
				t.Fatalf("reader saw %q, %t; want %q", got, ok, doc)
			}
		}
		noTempLitter(t, dir)
	})

	t.Run("AtomicWrite/committed file torn", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "doc.json")
		if err := WriteFile(path, []byte(newDoc)); err != nil {
			t.Fatal(err)
		}
		if err := faults.Corrupt(path); err != nil {
			t.Fatal(err)
		}
		ring := journal.NewRingSink(4)
		defer journal.Default().Attach(ring)()
		if got, ok := loadDoc(path); ok {
			t.Fatalf("reader trusted a torn file: %q", got)
		}
		if _, err := os.Stat(path + QuarantineSuffix); err != nil {
			t.Fatalf("torn file not quarantined: %v", err)
		}
		if len(ring.Events()) != 1 {
			t.Fatalf("quarantine journaled %d events, want 1 alert", len(ring.Events()))
		}
		// The next commit replaces the quarantined content cleanly.
		if err := WriteFile(path, []byte(oldDoc)); err != nil {
			t.Fatal(err)
		}
		if got, ok := loadDoc(path); !ok || got != oldDoc {
			t.Fatalf("reader saw %q, %t after recommit", got, ok)
		}
	})

	t.Run("Log.Append/torn mid-line", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		l := NewLog(path)
		if _, err := l.Append([]byte(`{"n":1}` + "\n" + `{"n":2}` + "\n")); err != nil {
			t.Fatal(err)
		}
		if err := faults.Corrupt(path); err != nil {
			t.Fatal(err)
		}
		if got := scanValid(t, path); !reflect.DeepEqual(got, []string{`{"n":1}`}) {
			t.Fatalf("after the tear the log reads %q, want the intact record", got)
		}
		// A restarted owner scans, then appends: the record must come back.
		l = NewLog(path)
		if err := l.Scan(func(int64, []byte) {}); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append([]byte(`{"n":3}` + "\n")); err != nil {
			t.Fatal(err)
		}
		if got := scanValid(t, path); !reflect.DeepEqual(got, []string{`{"n":1}`, `{"n":3}`}) {
			t.Fatalf("append after the tear reads %q, want n=1 and n=3", got)
		}
	})

	t.Run("Log.Append/offset after a torn line", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		l := NewLog(path)
		defer l.Close()
		first := `{"n":1}` + "\n"
		if off, err := l.Append([]byte(first + `{"n":2}` + "\n")); err != nil || off != 0 {
			t.Fatalf("first Append = %d, %v; want offset 0", off, err)
		}
		if err := faults.Corrupt(path); err != nil {
			t.Fatal(err)
		}
		// A restarted owner scans, appends, and reads its record back at
		// the returned offset: past the '\n' that ends the torn line.
		l.Close()
		l = NewLog(path)
		if err := l.Scan(func(int64, []byte) {}); err != nil {
			t.Fatal(err)
		}
		const rec = `{"n":3}`
		off, err := l.Append([]byte(rec + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := os.ReadFile(path)
		if want := int64(len(raw) - len(rec) - 1); off != want || raw[off-1] != '\n' {
			t.Fatalf("Append offset %d, want %d after a '\\n'", off, want)
		}
		if got, err := l.ReadAt(off, len(rec)); err != nil || string(got) != rec {
			t.Fatalf("ReadAt(%d) = %q, %v; want %s", off, got, err, rec)
		}
	})

	t.Run("Log.ReadAt/after reopen", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		l := NewLog(path)
		recs := []string{`{"n":1}`, `{"n":2,"pad":"xx"}`, `{"n":3}`}
		offs := map[int64]string{}
		for i, r := range recs {
			// Scan trims a line, and its offset points past the trim.
			lead := strings.Repeat(" ", i)
			off, err := l.Append([]byte(lead + r + "\n"))
			if err != nil {
				t.Fatal(err)
			}
			offs[off+int64(len(lead))] = r
		}
		l.Close()
		// A fresh Log, as a restarted store opens it: Scan must report
		// the offsets Append returned, and ReadAt must read them back.
		l = NewLog(path)
		defer l.Close()
		if _, err := l.ReadAt(0, 1); err == nil {
			t.Fatal("ReadAt on an unopened log succeeded")
		}
		seen := 0
		if err := l.Scan(func(off int64, line []byte) {
			if offs[off] != string(line) {
				t.Fatalf("Scan reported %q at %d, Append wrote %q there", line, off, offs[off])
			}
			seen++
		}); err != nil {
			t.Fatal(err)
		}
		if seen != len(recs) {
			t.Fatalf("Scan saw %d records, want %d", seen, len(recs))
		}
		if err := l.Open(); err != nil {
			t.Fatal(err)
		}
		for off, r := range offs {
			if got, err := l.ReadAt(off, len(r)); err != nil || string(got) != r {
				t.Fatalf("ReadAt(%d) = %q, %v; want %s", off, got, err, r)
			}
		}
		// A record cut short by a truncation is an error, not a short read.
		if err := os.Truncate(path, 10); err != nil {
			t.Fatal(err)
		}
		if got, err := l.ReadAt(9, len(recs[1])); err == nil {
			t.Fatalf("ReadAt past a truncation = %q, want an error", got)
		}
	})

	t.Run("Log.Rewrite/reopens the held handle", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		l := NewLog(path)
		defer l.Close()
		if _, err := l.Append([]byte(`{"n":1}` + "\n")); err != nil {
			t.Fatal(err)
		}
		if err := l.Rewrite(func(w io.Writer) error {
			_, err := io.WriteString(w, `{"n":2}`+"\n")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		// Appends after the compaction reach the new file, not the old
		// one the rename unlinked.
		off, err := l.Append([]byte(`{"n":3}` + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		if got := scanValid(t, path); !reflect.DeepEqual(got, []string{`{"n":2}`, `{"n":3}`}) {
			t.Fatalf("log reads %q after Rewrite and Append", got)
		}
		if got, err := l.ReadAt(off, 7); err != nil || string(got) != `{"n":3}` {
			t.Fatalf("ReadAt(%d) = %q, %v", off, got, err)
		}
	})

	t.Run("Log.Rewrite/interrupted before rename", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "log.jsonl")
		l := NewLog(path)
		if _, err := l.Append([]byte(`{"n":1}` + "\n" + `{"n":2}` + "\n")); err != nil {
			t.Fatal(err)
		}
		if err := l.Rewrite(tearAndCrash(t, `{"n":2}`+"\n")); !errors.Is(err, errCrash) {
			t.Fatalf("Rewrite = %v, want the crash", err)
		}
		noTempLitter(t, dir)
		if _, err := l.Append([]byte(`{"n":3}` + "\n")); err != nil {
			t.Fatal(err)
		}
		if got := scanValid(t, path); !reflect.DeepEqual(got, []string{`{"n":1}`, `{"n":2}`, `{"n":3}`}) {
			t.Fatalf("log reads %q, want the old records plus n=3", got)
		}
	})

	t.Run("Log.Rewrite/after rename", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, []byte(`{"n":1}`+"\n"+`{"n":2,"to`), 0o644); err != nil {
			t.Fatal(err)
		}
		l := NewLog(path)
		if err := l.Scan(func(int64, []byte) {}); err != nil {
			t.Fatal(err)
		}
		// Compaction drops the torn tail, so no '\n' is owed afterwards.
		if err := l.Rewrite(func(w io.Writer) error {
			_, err := io.WriteString(w, `{"n":1}`+"\n")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append([]byte(`{"n":3}` + "\n")); err != nil {
			t.Fatal(err)
		}
		raw, _ := os.ReadFile(path)
		if string(raw) != `{"n":1}`+"\n"+`{"n":3}`+"\n" {
			t.Fatalf("compacted log = %q", raw)
		}
	})

	t.Run("Quarantine/renamed", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "bad.json")
		os.WriteFile(path, []byte("{{"), 0o644)
		alert := quarantineAlert(t, path)
		if alert["file"] != path+QuarantineSuffix {
			t.Fatalf("alert file = %v, want the quarantined name", alert["file"])
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatal("quarantined file still under its own name")
		}
	})

	t.Run("Quarantine/read-only dir", func(t *testing.T) {
		if os.Geteuid() == 0 {
			t.Skip("running as root: chmod cannot make the dir unwritable")
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "bad.json")
		os.WriteFile(path, []byte("{{"), 0o644)
		if err := os.Chmod(dir, 0o555); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(dir, 0o755)
		quarantineInPlace(t, path)
	})

	t.Run("Quarantine/rename blocked", func(t *testing.T) {
		// A directory squatting on the quarantine name makes the rename
		// fail for any user, root included.
		path := filepath.Join(t.TempDir(), "bad.json")
		os.WriteFile(path, []byte("{{"), 0o644)
		if err := os.MkdirAll(filepath.Join(path+QuarantineSuffix, "x"), 0o755); err != nil {
			t.Fatal(err)
		}
		quarantineInPlace(t, path)
	})
}

// quarantineAlert quarantines path and returns the fields of the one
// alert it journaled, after checking the contract every store relies on.
func quarantineAlert(t *testing.T, path string) map[string]any {
	t.Helper()
	ring := journal.NewRingSink(4)
	defer journal.Default().Attach(ring)()
	Quarantine(path, "durable.test", errors.New("bad bytes"), journal.F("job", "j1"))
	events := ring.Events()
	if len(events) != 1 || events[0].Name != "alert" {
		t.Fatalf("journaled %+v, want one alert", events)
	}
	f := events[0].Fields
	if f["rule"] != "durable.test" || f["severity"] != "warn" || f["error"] != "bad bytes" || f["job"] != "j1" {
		t.Fatalf("alert fields = %v", f)
	}
	return f
}

// quarantineInPlace checks a quarantine whose rename fails: the alert
// still fires, naming the file where it stayed, and its bytes survive.
func quarantineInPlace(t *testing.T, path string) {
	t.Helper()
	if alert := quarantineAlert(t, path); alert["file"] != path {
		t.Fatalf("alert file = %v, want the unmoved %s", alert["file"], path)
	}
	if raw, err := os.ReadFile(path); err != nil || string(raw) != "{{" {
		t.Fatalf("unmoved file = %q, %v", raw, err)
	}
}

func TestAtomicWriteMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gone", "doc.json")
	if err := WriteFile(path, []byte(oldDoc)); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

func TestProbe(t *testing.T) {
	dir := t.TempDir()
	if err := Probe(dir); err != nil {
		t.Fatalf("probe on a writable dir: %v", err)
	}
	noTempLitter(t, dir)
	if err := Probe(filepath.Join(dir, "gone")); err == nil {
		t.Fatal("probe passed on a missing directory")
	}
}

// FuzzLogRecover writes arbitrary prior bytes as a log file, then scans
// and appends one record the way a restarted store does. Every prior
// '\n'-terminated line that parses, a parseable torn tail, and the new
// record must all read back, in order.
func FuzzLogRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, prior []byte) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, prior, 0o644); err != nil {
			t.Fatal(err)
		}
		l := NewLog(path)
		if err := l.Scan(func(int64, []byte) {}); err != nil {
			t.Skip("line beyond the scan limit")
		}
		const rec = `{"fuzz":"appended"}`
		if _, err := l.Append([]byte(rec + "\n")); err != nil {
			t.Fatal(err)
		}

		var want []string
		cut := bytes.LastIndexByte(prior, '\n') + 1
		for _, line := range append(bytes.Split(prior[:cut], []byte{'\n'}), prior[cut:]) {
			if line = bytes.TrimSpace(line); json.Valid(line) {
				want = append(want, string(line))
			}
		}
		want = append(want, rec)
		if got := scanValid(t, path); !reflect.DeepEqual(got, want) {
			t.Fatalf("prior %q: scan after append = %q, want %q", prior, got, want)
		}
	})
}
