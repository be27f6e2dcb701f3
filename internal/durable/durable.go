// Package durable holds the file idioms every persistent store shares
// (DESIGN.md "Durable files"): AtomicWrite commits a whole file, Log
// appends to and recovers a JSONL file, Quarantine sets a defective
// file aside with a journaled alert, and Probe checks a directory still
// accepts files. The stores keep their own formats and policies.
//
// Nothing here calls fsync: the guarantee is against a process crash,
// the failure the fleet and checkpoint smokes inject.
package durable

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"unicode"

	"spinwave/internal/journal"
)

// QuarantineSuffix is appended to the name of a file Quarantine sets
// aside. Store scans and the retention engine skip such files; only an
// operator removes them.
const QuarantineSuffix = ".quarantined"

// maxLine bounds one Log line; a longer line fails the Scan.
const maxLine = 16 << 20

// AtomicWrite commits what fill writes as the whole content of path, by
// a temp file in path's directory renamed over path: a crash leaves the
// old content or the new, never a mix. On error the temp file is
// removed. Temp names start with a dot, which every store scan skips.
func AtomicWrite(path string, fill func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	err = fill(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("durable: write %s: %w", filepath.Base(path), err)
	}
	return nil
}

// WriteFile is AtomicWrite of one byte slice.
func WriteFile(path string, data []byte) error {
	return AtomicWrite(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Probe verifies that dir still accepts new files by creating, writing
// and removing a temp file — the deep health checks' writability test.
func Probe(dir string) error {
	f, err := os.CreateTemp(dir, ".probe-*.tmp")
	if err != nil {
		return err
	}
	_, err = f.WriteString("probe")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if rerr := os.Remove(f.Name()); err == nil {
		err = rerr
	}
	return err
}

// SetAside renames path to path+QuarantineSuffix and returns the new
// name, or path itself when the rename fails (a read-only directory, a
// missing file).
func SetAside(path string) string {
	dst := path + QuarantineSuffix
	if os.Rename(path, dst) != nil {
		return path
	}
	return dst
}

// Quarantine sets a defective file aside and journals an "alert" event
// with rule, severity "warn", the file's resulting name and the cause,
// then the caller's fields. The caller counts it in its own metric.
func Quarantine(path, rule string, cause error, fields ...journal.Field) {
	dst := SetAside(path)
	if jd := journal.Default(); jd.Enabled() {
		jd.Emit("", "alert", append([]journal.Field{
			journal.F("rule", rule),
			journal.F("severity", "warn"),
			journal.F("file", dst),
			journal.F("error", cause.Error()),
		}, fields...)...)
	}
}

// Log is an append-only JSONL file. It holds its file open between
// Appends: the handle opens at the first Append (or Open), reopens on
// the new file after a Rewrite, and Close releases it. Each Append is
// one write in append mode, so a crash tears at most the final line. A
// Log never emits journal events — the fleet journal store appends from
// inside journal sink delivery. Its owner serializes calls under its
// own lock; only ReadAt may run beside other ReadAts.
type Log struct {
	path string
	f    *os.File // the held handle, nil until Open
	// torn reports that the file, as last scanned or written, ends in a
	// line without its '\n'. The next Append then starts with a '\n' so
	// its records are not glued to the torn line and lost.
	torn bool
}

// NewLog returns the Log at path without touching the disk. Scan it
// before the first Append so a torn tail is known.
func NewLog(path string) *Log { return &Log{path: path} }

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Open opens the held handle, creating the file if needed; Append does
// so itself, so only a reader that calls ReadAt before any Append needs
// it. Opening an open Log does nothing.
func (l *Log) Open() error {
	if l.f != nil {
		return nil
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: open %s: %w", filepath.Base(l.path), err)
	}
	l.f = f
	return nil
}

// Close releases the held handle; the next Append or Open reopens it.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Append writes lines, whole records each ending in '\n', in one write,
// creating the file if needed, and returns the file offset of the first
// record — the offset Scan reports for it.
func (l *Log) Append(lines []byte) (int64, error) {
	if err := l.Open(); err != nil {
		return 0, err
	}
	buf := lines
	if l.torn {
		buf = append([]byte{'\n'}, lines...)
	}
	_, err := l.f.Write(buf)
	var end int64
	if err == nil {
		end, err = l.f.Seek(0, io.SeekCurrent)
	}
	if err != nil {
		// The write may have stopped mid-line; a spare '\n' before the
		// next record costs only a blank line, which Scan skips. The
		// handle is dropped so the next Append opens the file afresh.
		l.torn = true
		l.Close()
		return 0, fmt.Errorf("durable: append %s: %w", filepath.Base(l.path), err)
	}
	l.torn = len(lines) > 0 && lines[len(lines)-1] != '\n'
	return end - int64(len(lines)), nil
}

// ReadAt reads the n-byte record at off, as Scan reported it, through
// the held handle; a record cut short by the end of the file is an
// error. The Log must be open.
func (l *Log) ReadAt(off int64, n int) ([]byte, error) {
	if l.f == nil {
		return nil, fmt.Errorf("durable: read %s: log not open", filepath.Base(l.path))
	}
	buf := make([]byte, n)
	if _, err := l.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("durable: read %s: %w", filepath.Base(l.path), err)
	}
	return buf, nil
}

// Scan calls each with the offset and content of every non-blank line
// of the file, trimmed, in order; each skips what it cannot parse (a
// torn tail, a foreign line), so only I/O fails a scan. A missing file
// scans as empty. Scan reads through its own handle and also learns
// whether the file ends mid-line, for the next Append.
func (l *Log) Scan(each func(off int64, line []byte)) error {
	f, err := os.Open(l.path)
	if os.IsNotExist(err) {
		l.torn = false
		return nil
	}
	if err != nil {
		return fmt.Errorf("durable: scan: %w", err)
	}
	defer f.Close()
	torn := false
	var pos, start int64 // next unread byte; first byte of the last token
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if atEOF && len(data) > 0 && bytes.IndexByte(data, '\n') < 0 {
			torn = true
		}
		adv, tok, err := bufio.ScanLines(data, atEOF)
		start = pos
		pos += int64(adv)
		return adv, tok, err
	})
	for sc.Scan() {
		raw := sc.Bytes()
		if line := bytes.TrimSpace(raw); len(line) > 0 {
			lead := len(raw) - len(bytes.TrimLeftFunc(raw, unicode.IsSpace))
			each(start+int64(lead), line)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("durable: scan %s: %w", filepath.Base(l.path), err)
	}
	l.torn = torn
	return nil
}

// Rewrite replaces the whole log with what fill writes, by AtomicWrite —
// the compaction path. fill must end every record with '\n'. A held
// handle is reopened on the new file, so later Appends and ReadAts do
// not reach the replaced one.
func (l *Log) Rewrite(fill func(io.Writer) error) error {
	if err := AtomicWrite(l.path, fill); err != nil {
		return err
	}
	l.torn = false
	if l.f == nil {
		return nil
	}
	l.Close()
	return l.Open()
}
