package storage

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
)

// FileLog is a persistent, append-only JSON-lines log of entries. It is
// the seed-era ActionLog moved behind the storage API: one entry per
// line, replayed front to back on recovery. Because the manager's
// operational state is a deterministic function of the action sequence,
// replaying the log reconstructs the state exactly — the recovery
// strategy of Sec 7.
type FileLog struct {
	mu   sync.Mutex
	path string
	f    *os.File
	w    *bufio.Writer
	rec  []byte // scratch: the record being written
}

// OpenFileLog opens or creates a log file.
func OpenFileLog(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open log: %w", err)
	}
	return &FileLog{path: path, f: f, w: bufio.NewWriter(f)}, nil
}

// replayFile scans one JSON-lines log file, calling fn per entry
// decoded by d.
// Entries without an explicit sequence number (pre-snapshot logs) are
// numbered seq+1, seq+2, ... positionally; the running sequence is
// returned so multi-file (segmented) replay numbers continuously.
//
// A torn final line — the crash hit mid-append — is reported via a
// non-negative tornAt: the byte offset of the first torn byte. Callers
// that own an appendable tail MUST truncate there; welding the next
// append onto torn bytes turns a benign torn tail into a mid-file
// corrupt record that fails every later recovery. Corruption anywhere
// but the final line is an error.
func replayFile(f *os.File, seq uint64, d *recordDecoder, fn func(Entry) error) (nextSeq uint64, tornAt int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return seq, -1, fmt.Errorf("storage: log seek: %w", err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(*d.buf, 16*1024*1024)
	var good int64 // byte offset just past the last well-formed line
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			good += 1
			continue
		}
		e, err := d.decode(raw)
		if err != nil {
			if !sc.Scan() { // torn tail
				return seq, good, nil
			}
			return seq, -1, fmt.Errorf("storage: corrupt log record: %v", err)
		}
		good += int64(len(raw)) + 1
		if e.Seq == 0 {
			seq++
			e.Seq = seq
		} else {
			seq = e.Seq
		}
		if err := fn(e); err != nil {
			return seq, -1, err
		}
	}
	if err := sc.Err(); err != nil {
		return seq, -1, fmt.Errorf("storage: log replay: %w", err)
	}
	return seq, -1, nil
}

// Replay calls fn for every logged entry in order, then positions the
// log for appending. A torn final line (crash during append) is
// truncated away before the write position is restored, so a later
// append can never weld a fresh record onto torn bytes — which would
// turn the benign torn tail into a mid-file corrupt record that fails
// every subsequent recovery.
func (l *FileLog) Replay(fn func(Entry) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := newRecordDecoder()
	defer d.close()
	_, tornAt, err := replayFile(l.f, 0, d, fn)
	if err != nil {
		return err
	}
	if tornAt >= 0 {
		if err := l.f.Truncate(tornAt); err != nil {
			return fmt.Errorf("storage: log truncate torn tail: %w", err)
		}
	}
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("storage: log seek: %w", err)
	}
	return nil
}

// Append writes one entry and flushes it to the OS.
func (l *FileLog) Append(e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.bufferLocked(e); err != nil {
		return err
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("storage: log flush: %w", err)
	}
	return nil
}

// Buffer stages one entry in the write buffer without flushing it. The
// group-commit path buffers every action of a batch, then settles them
// all with one Commit — one flush (and at most one fsync) per batch
// instead of one per action.
func (l *FileLog) Buffer(e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bufferLocked(e)
}

func (l *FileLog) bufferLocked(e Entry) error {
	l.rec = append(appendRecord(l.rec[:0], e), '\n')
	if _, err := l.w.Write(l.rec); err != nil {
		return fmt.Errorf("storage: log write: %w", err)
	}
	return nil
}

// Commit flushes every buffered entry to the OS and, when sync is set,
// fsyncs the file — the single durability point of one group commit.
func (l *FileLog) Commit(sync bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("storage: log flush: %w", err)
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("storage: log sync: %w", err)
		}
	}
	return nil
}

// Sync forces the appended entries to stable storage (fsync).
func (l *FileLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("storage: log sync: %w", err)
	}
	return nil
}

// Truncate discards the log's contents. Called right after a covering
// checkpoint: everything the log held is folded into it, so the entries
// are dead weight. Recovery stays correct even if a crash prevents the
// truncation, because entries carry sequence numbers the checkpoint
// cutoff filters on.
func (l *FileLog) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("storage: log flush: %w", err)
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: log truncate: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("storage: log seek: %w", err)
	}
	return nil
}

// Size returns the current byte size of the log file (diagnostics).
func (l *FileLog) Size() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return 0, err
	}
	st, err := l.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Close flushes and closes the log file.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var firstErr error
	if err := l.w.Flush(); err != nil {
		firstErr = err
	}
	if err := l.f.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := l.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	l.f = nil
	return firstErr
}

// Crash simulates a process crash: the file handle is closed without
// flushing the write buffer, so staged-but-uncommitted entries die
// exactly as they would when the process is killed.
func (l *FileLog) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}
