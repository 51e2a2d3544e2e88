package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// The File's own durability points, reported to its Hook. They sit one
// level below the Log's wal.append/wal.append.done pair: OpFileAppend
// fires before the OS write, OpFileSync after the write but before the
// fsync, so a crash harness can kill in the window where data is in the
// page cache but not yet durable.
const (
	OpFileAppend = "wal.file.append"
	OpFileSync   = "wal.file.sync"
)

// FileOptions configures a File.
type FileOptions struct {
	// Framing delimits records; nil means Binary{}.
	Framing Framing
	// Hook, when non-nil, is consulted at OpFileAppend and OpFileSync
	// with the file path as key; an error fails the operation before the
	// write (or fsync) happens. This is the File's fault seam — the Log
	// has its own coarser hook around whole appends and checkpoints.
	Hook Hook
}

// File is one append-only log file of frames. The handle is opened once
// and held for the File's lifetime, and every Append is fsynced before
// it returns. Safe for concurrent use.
type File struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	fr       Framing
	hook     Hook
	unsynced int // appends written but not yet fsynced (a failed sync)
	buf      []byte
	size     int64
}

// OpenFile opens (creating if needed) the log file at path.
func OpenFile(path string, o FileOptions) (*File, error) {
	if o.Framing == nil {
		o.Framing = Binary{}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &File{path: path, f: f, fr: o.Framing, hook: o.Hook, size: st.Size()}, nil
}

func (w *File) consult(op string) error {
	if w.hook == nil {
		return nil
	}
	return w.hook(op, w.path)
}

// Append frames payload onto the file and fsyncs it before returning.
func (w *File) Append(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(payload)
}

func (w *File) appendLocked(payload []byte) error {
	if err := w.consult(OpFileAppend); err != nil {
		return err
	}
	// Framing is pure byte manipulation (Binary/Lines); it cannot block
	// or call back into the File.
	//xyvet:ignore lockcheck
	buf, err := w.fr.AppendFrame(w.buf[:0], payload)
	if err != nil {
		return err
	}
	w.buf = buf[:0] // keep the capacity, not the data
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.size += int64(len(buf))
	w.unsynced++
	return w.syncLocked()
}

func (w *File) syncLocked() error {
	if w.unsynced == 0 {
		return nil
	}
	if err := w.consult(OpFileSync); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.unsynced = 0
	return nil
}

// Size returns the current file size in bytes (frames written, torn
// tail included until Replay truncates it).
func (w *File) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Close fsyncs any append whose own fsync failed and releases the
// handle.
func (w *File) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// Replay streams every intact record to fn in append order. A torn
// final frame — the crash happened mid-append — is discarded and
// truncated away, so the next Append starts on a clean boundary;
// everything before it was durably written and comes back. Corruption
// anywhere else fails loudly: that is not a crash artifact, the file
// was damaged.
func (w *File) Replay(fn func(payload []byte) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	data, err := os.ReadFile(w.path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	valid, err := scan(data, w.fr, fn)
	if err != nil {
		return err
	}
	if valid < len(data) {
		if err := os.Truncate(w.path, int64(valid)); err != nil {
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		w.size = int64(valid)
	}
	return nil
}

// SyncDir fsyncs a directory, making renames and unlinks inside it
// durable. Every os.Rename that installs a freshly created file must be
// followed by a SyncDir of its parent — the walfsync analyzer enforces
// this shape tree-wide.
//
// This is a registered durability primitive: faults are injected by the
// hooks and injector checks surrounding its call sites (the Log's
// checkpoint ops, the warehouse save point), not inside it.
//
//xyvet:faultpoint
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: syncing %s: %w", dir, err)
	}
	return nil
}

// WriteFileSync writes data to path and fsyncs it — os.WriteFile plus
// the durability the crash-recovery discipline requires before a rename
// can install the file.
//
// This is a registered durability primitive: faults are injected by the
// hooks and injector checks surrounding its call sites (the Log's
// checkpoint ops, the warehouse save point), not inside it.
//
//xyvet:faultpoint
func WriteFileSync(path string, data []byte, perm os.FileMode) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, perm)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: writing %s: %w", filepath.Base(path), err)
	}
	return nil
}
