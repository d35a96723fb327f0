// Package storage is the manager's durable storage engine: an
// append-only action log plus checkpoint storage behind one Backend
// interface, with three implementations.
//
//   - Monolith is the seed-era layout — one JSON-lines log file plus one
//     full-state snapshot file — kept as the compatibility baseline (and
//     as the comparator the torture tests converge segmented recovery
//     against).
//   - Segmented splits the log into fixed-size sealed segments with
//     background compaction (a checkpoint makes every fully covered
//     segment dead weight; dropping a segment is one unlink, so the log
//     never needs a rewrite pass), and stores checkpoints as chains: a
//     periodic full base plus delta pieces that carry only state nodes
//     unseen since the previous checkpoint (internal/state format v4).
//   - Memory is the crash-simulatable in-memory twin for internal/sim,
//     so simulated chaos schedules exercise the same storage code paths
//     (including delta chains and recovery) without a filesystem.
//
// Crash-safety discipline shared by the file backends: every checkpoint
// and every segment seal is written (or renamed) atomically and made
// durable with an fsync of the file AND of its parent directory — a
// rename whose directory entry is not synced can be lost wholesale on a
// machine crash, silently reverting to the previous checkpoint. Stale
// temp files from interrupted writes are ignored and removed on open.
// Interrupted compaction (some covered files deleted, some not) is
// harmless by construction: log replay filters entries a checkpoint
// already covers by sequence number, and checkpoint restore starts at
// the newest full base, so leftover older pieces are inert.
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Entry is one logged action: the global confirm sequence number plus
// the concrete action's name and argument values. The JSON field names
// match the seed-era log format, so pre-existing logs keep replaying.
//
// A file backend writes an entry as one line, its record:
//
//	record := '{"a":' string [ ',"v":[' string { ',' string } ']' ] [ ',"s":' uint ] '}'
//
// with "v" left out when there are no arguments and "s" when Seq is 0
// (positional numbering on replay). Both FileLog and Segmented write it
// byte for byte as json.Marshal does, escapes included, with the codec
// of record.go; a line json.Unmarshal reads as an Entry replays.
type Entry struct {
	Name string   `json:"a"`
	Args []string `json:"v,omitempty"`
	Seq  uint64   `json:"s,omitempty"`
}

// Checkpoint is one checkpoint piece. Full pieces start a chain (they
// restore standalone); delta pieces extend the chain of the most recent
// full piece and carry only what changed since the previous piece.
type Checkpoint struct {
	// Seq is the confirm sequence number the checkpoint covers: log
	// entries with Seq <= this are folded into it.
	Seq uint64
	// Full marks a chain-starting full checkpoint.
	Full bool
	// Data is the serialized checkpoint payload (opaque to the backend).
	Data []byte
}

// ErrDeltaUnsupported is returned by SaveCheckpoint for a delta piece on
// a backend that can only store standalone snapshots.
var ErrDeltaUnsupported = errors.New("storage: backend does not support delta checkpoints")

// Backend is a durable storage engine for one manager. Implementations
// are safe for concurrent use. The expected lifecycle is RestoreChain →
// Replay → appends/checkpoints → Close.
type Backend interface {
	// RestoreChain returns the checkpoint restore chain, oldest first:
	// the most recent full checkpoint followed by every delta written
	// after it. Nil means no checkpoint exists.
	RestoreChain() ([]Checkpoint, error)
	// Replay calls fn for every logged entry in sequence order, then
	// positions the log for appending. A torn final line (crash during
	// append) is truncated away, so later appends can never weld onto
	// torn bytes; any other corruption is an error.
	Replay(fn func(Entry) error) error
	// Append stages one entry and flushes it to the OS (durable against
	// process crashes; call Sync for machine-crash durability).
	Append(e Entry) error
	// Buffer stages one entry without flushing. The group-commit path
	// buffers a whole batch, then settles it with one Commit.
	Buffer(e Entry) error
	// Commit flushes all buffered entries and, when sync is set, fsyncs —
	// the single durability point of one group commit.
	Commit(sync bool) error
	// Sync forces appended entries to stable storage (fsync).
	Sync() error
	// SaveCheckpoint stores one checkpoint piece durably (atomic write,
	// file + directory fsync).
	SaveCheckpoint(c Checkpoint) error
	// CompactThrough drops log entries a checkpoint at seq covers and
	// garbage-collects checkpoint pieces older than the current chain.
	// Implementations may compact in the background; crash-interruption
	// at any point must leave recovery correct.
	CompactThrough(seq uint64) error
	// TruncateLog drops every log entry unconditionally — the resync
	// path, where the old entries belong to a replaced timeline whose
	// sequence numbers may exceed the installed state's.
	TruncateLog() error
	// SupportsDelta reports whether SaveCheckpoint accepts delta pieces.
	SupportsDelta() bool
	// LogBytes returns the current byte size of the log (diagnostics).
	LogBytes() (int64, error)
	// CheckpointBytes returns the byte size of the live restore chain.
	CheckpointBytes() (int64, error)
	// Close flushes and closes the backend.
	Close() error
}

// Crasher is implemented by backends that can simulate a process crash
// for tests and the simulator: the backend stops dead without flushing
// buffers, so staged-but-uncommitted entries die exactly as they would
// when the process is killed.
type Crasher interface {
	Crash()
}

// SyncDir fsyncs a directory, making renames and unlinks inside it
// durable. A rename is two updates — the file and its directory entry —
// and only the first is covered by the file's own fsync.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("storage: sync dir %s: %w", dir, err)
	}
	return nil
}

// writeFileAtomic writes data to path via a temp file in the same
// directory: write, fsync, rename, fsync the directory. A crash at any
// point leaves either the old file or the new one, never a torn mix,
// and never a rename that silently evaporates.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("storage: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("storage: rename %s: %w", tmp, err)
	}
	return SyncDir(filepath.Dir(path))
}
