package manager

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"xymon/internal/wal"
)

// tornJournal writes a WAL journal whose final Append was cut short
// after keep bytes of its frame — the on-disk state after a crash
// between write and sync. It returns the journal directory.
func tornJournal(t *testing.T, intact []Record, torn Record, keep int) string {
	t.Helper()
	dir := t.TempDir()
	j := newWALJournal(t, dir)
	for _, r := range intact {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	enc, err := json.Marshal(torn)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wal.Binary{}.AppendFrame(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "seg-00000001.wal"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:keep]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return dir
}

// TestRecordsSkipsTornTail pins crash recovery: a half-written final
// record must not cost the durably synced prefix.
func TestRecordsSkipsTornTail(t *testing.T) {
	intact := []Record{
		{Op: "subscribe", Name: "a", Source: "monitor x"},
		{Op: "subscribe", Name: "b", Source: "monitor y"},
		{Op: "unsubscribe", Name: "a"},
	}
	// The torn frame carries its whole header and half its payload.
	dir := tornJournal(t, intact, Record{Op: "subscribe", Name: "c", Source: "monitor z"}, 20)
	j := newWALJournal(t, dir)
	got, err := j.Records()
	if err != nil {
		t.Fatalf("Records on torn journal: %v", err)
	}
	if len(got) != len(intact) {
		t.Fatalf("recovered %d records, want %d", len(got), len(intact))
	}
	for i, r := range got {
		if r != intact[i] {
			t.Errorf("record %d = %+v, want %+v", i, r, intact[i])
		}
	}

	// The torn bytes are truncated away, so a post-recovery Append starts
	// on a clean frame boundary and a second recovery sees the new record.
	if err := j.Append(Record{Op: "subscribe", Name: "d"}); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	j.Close()
	got, err = newWALJournal(t, dir).Records()
	if err != nil {
		t.Fatalf("Records after post-recovery append: %v", err)
	}
	if len(got) != 4 || got[3].Name != "d" {
		t.Fatalf("after append: %+v", got)
	}
}

// TestRecordsTornTailOnly pins the degenerate case: a journal whose only
// content is a torn record recovers to zero records, not an error.
func TestRecordsTornTailOnly(t *testing.T) {
	dir := tornJournal(t, nil, Record{Op: "subscribe", Name: "only"}, 11)
	got, err := newWALJournal(t, dir).Records()
	if err != nil {
		t.Fatalf("Records on torn-only journal: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("recovered %+v from a torn-only journal", got)
	}
}

// TestRecordsMidFileCorruptionStillFails pins the boundary of the
// tolerance: a complete record that fails its checksum is damage, not a
// crash artifact, and recovery must refuse to silently drop it.
func TestRecordsMidFileCorruptionStillFails(t *testing.T) {
	dir := t.TempDir()
	j := newWALJournal(t, dir)
	for _, name := range []string{"a", "b", "c"} {
		if err := j.Append(Record{Op: "subscribe", Name: name}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	j.Close()
	seg := filepath.Join(dir, "seg-00000001.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0xFF // inside the first record's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(dir, wal.Options{})
	if err == nil {
		_, err = NewWALJournal(l).Records()
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("recovery of a mid-file corruption = %v, want wal.ErrCorrupt", err)
	}
}
