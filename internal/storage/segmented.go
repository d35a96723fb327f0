package storage

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DefaultSegmentBytes is the sealed-segment size threshold used when
// the caller does not configure one.
const DefaultSegmentBytes = 1 << 20

// Segmented is the storage engine's main backend: the action log is
// split into fixed-size segments and checkpoints form delta chains.
//
// Directory layout:
//
//	seg-%08d.open           the single active (appendable) segment
//	seg-%08d-%020d.seg      sealed segments; the second number is the
//	                        highest sequence number the segment holds
//	ckpt-%08d.full          full (chain-starting) checkpoint pieces
//	ckpt-%08d.delta         delta checkpoint pieces
//	*.tmp                   interrupted atomic writes, removed on open
//
// When the active segment reaches the size threshold it is sealed:
// fsynced, renamed to its sealed name (recording the covered sequence
// number in the filename), and a fresh active segment is created — each
// rename made durable with a directory fsync. Compaction then runs in
// the background: a checkpoint at sequence S makes every sealed segment
// with lastSeq <= S and every checkpoint piece older than the current
// chain dead weight, and dropping them is a handful of unlinks — no
// rewrite pass over surviving data, ever.
//
// Crash-interruption anywhere is recoverable: a torn tail can only
// exist in the active segment (seals fsync first) and is truncated on
// replay; a partially applied compaction just leaves some dead files,
// which replay's sequence filtering and restore's newest-full-base rule
// render inert until the next compaction removes them.
type Segmented struct {
	mu       sync.Mutex
	dir      string
	segBytes int64

	active      *os.File
	w           *bufio.Writer
	activeIdx   int
	activeBytes int64
	lastSeq     uint64 // highest sequence number written to the log
	rec         []byte // scratch: the record being written

	sealed []sealedSeg
	chain  []ckptFile
	goal   uint64 // compact-through target

	compactMu  sync.Mutex // serializes background compaction passes
	compactWG  sync.WaitGroup
	compactErr error
}

type sealedSeg struct {
	idx     int
	lastSeq uint64
	path    string
}

type ckptFile struct {
	idx  int
	full bool
	path string
}

// OpenSegmented opens (or initializes) a segmented store in dir.
// segBytes is the seal threshold; <= 0 selects DefaultSegmentBytes.
func OpenSegmented(dir string, segBytes int64) (*Segmented, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: mkdir %s: %w", dir, err)
	}
	s := &Segmented{dir: dir, segBytes: segBytes}

	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: read dir %s: %w", dir, err)
	}
	openIdx := -1
	for _, de := range names {
		name := de.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// Interrupted atomic write; the rename never happened, so the
			// content was never live.
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("storage: remove stale tmp: %w", err)
			}
		case strings.HasSuffix(name, ".open"):
			var idx int
			if _, err := fmt.Sscanf(name, "seg-%08d.open", &idx); err != nil {
				return nil, fmt.Errorf("storage: unrecognized file %s", name)
			}
			if openIdx >= 0 {
				return nil, fmt.Errorf("storage: multiple open segments (seg-%08d and seg-%08d)", openIdx, idx)
			}
			openIdx = idx
		case strings.HasSuffix(name, ".seg"):
			var idx int
			var last uint64
			if _, err := fmt.Sscanf(name, "seg-%08d-%020d.seg", &idx, &last); err != nil {
				return nil, fmt.Errorf("storage: unrecognized file %s", name)
			}
			s.sealed = append(s.sealed, sealedSeg{idx: idx, lastSeq: last, path: filepath.Join(dir, name)})
		case strings.HasSuffix(name, ".full") || strings.HasSuffix(name, ".delta"):
			var idx int
			full := strings.HasSuffix(name, ".full")
			pat := "ckpt-%08d.delta"
			if full {
				pat = "ckpt-%08d.full"
			}
			if _, err := fmt.Sscanf(name, pat, &idx); err != nil {
				return nil, fmt.Errorf("storage: unrecognized file %s", name)
			}
			s.chain = append(s.chain, ckptFile{idx: idx, full: full, path: filepath.Join(dir, name)})
		default:
			return nil, fmt.Errorf("storage: unrecognized file %s", name)
		}
	}
	sort.Slice(s.sealed, func(i, j int) bool { return s.sealed[i].idx < s.sealed[j].idx })
	sort.Slice(s.chain, func(i, j int) bool { return s.chain[i].idx < s.chain[j].idx })
	for _, seg := range s.sealed {
		if openIdx >= 0 && seg.idx >= openIdx {
			return nil, fmt.Errorf("storage: sealed segment %d at or past open segment %d", seg.idx, openIdx)
		}
		if seg.lastSeq > s.lastSeq {
			s.lastSeq = seg.lastSeq
		}
	}
	if openIdx < 0 {
		// Crash between sealing the old active segment and creating the
		// next one; or a fresh directory.
		openIdx = 0
		if n := len(s.sealed); n > 0 {
			openIdx = s.sealed[n-1].idx + 1
		}
		if err := s.createActiveLocked(openIdx); err != nil {
			return nil, err
		}
	} else {
		f, err := os.OpenFile(s.activePath(openIdx), os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("storage: open segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: stat segment: %w", err)
		}
		s.active = f
		s.w = bufio.NewWriter(f)
		s.activeIdx = openIdx
		s.activeBytes = st.Size()
	}
	return s, nil
}

func (s *Segmented) activePath(idx int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.open", idx))
}

func (s *Segmented) sealedPath(idx int, lastSeq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d-%020d.seg", idx, lastSeq))
}

func (s *Segmented) ckptPath(idx int, full bool) string {
	ext := "delta"
	if full {
		ext = "full"
	}
	return filepath.Join(s.dir, fmt.Sprintf("ckpt-%08d.%s", idx, ext))
}

func (s *Segmented) createActiveLocked(idx int) error {
	f, err := os.OpenFile(s.activePath(idx), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create segment: %w", err)
	}
	if err := SyncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.active = f
	s.w = bufio.NewWriter(f)
	s.activeIdx = idx
	s.activeBytes = 0
	return nil
}

// RestoreChain returns the newest full checkpoint followed by every
// delta written after it, oldest first. Pieces older than the newest
// full base are inert leftovers awaiting compaction and are skipped; a
// missing piece after the base (a hole in the index sequence) is
// corruption and errors out.
func (s *Segmented) RestoreChain() ([]Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := -1
	for i := len(s.chain) - 1; i >= 0; i-- {
		if s.chain[i].full {
			start = i
			break
		}
	}
	if start < 0 {
		if len(s.chain) > 0 {
			// Deltas with no surviving base cannot restore.
			return nil, fmt.Errorf("storage: checkpoint chain has no full base (oldest piece ckpt-%08d)", s.chain[0].idx)
		}
		return nil, nil
	}
	var out []Checkpoint
	for i := start; i < len(s.chain); i++ {
		c := s.chain[i]
		if i > start && c.idx != s.chain[i-1].idx+1 {
			return nil, fmt.Errorf("storage: checkpoint chain broken: ckpt-%08d follows ckpt-%08d", c.idx, s.chain[i-1].idx)
		}
		data, err := os.ReadFile(c.path)
		if err != nil {
			return nil, fmt.Errorf("storage: read checkpoint: %w", err)
		}
		out = append(out, Checkpoint{Full: c.full, Data: data})
	}
	return out, nil
}

// Replay calls fn for every logged entry — sealed segments in index
// order, then the active segment — and positions the active segment for
// appending. A torn final line is tolerated (and truncated) only in the
// active segment; sealed segments were fsynced before their seal
// rename, so a torn line there is real corruption.
func (s *Segmented) Replay(fn func(Entry) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var seq uint64
	d := newRecordDecoder() // one for every segment, so each name is interned once
	defer d.close()
	for _, seg := range s.sealed {
		f, err := os.Open(seg.path)
		if err != nil {
			return fmt.Errorf("storage: open segment: %w", err)
		}
		nextSeq, tornAt, err := replayFile(f, seq, d, fn)
		f.Close()
		if err != nil {
			return err
		}
		if tornAt >= 0 {
			return fmt.Errorf("storage: torn record in sealed segment %s", seg.path)
		}
		seq = nextSeq
	}
	nextSeq, tornAt, err := replayFile(s.active, seq, d, fn)
	if err != nil {
		return err
	}
	if tornAt >= 0 {
		if err := s.active.Truncate(tornAt); err != nil {
			return fmt.Errorf("storage: log truncate torn tail: %w", err)
		}
		s.activeBytes = tornAt
	}
	if _, err := s.active.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("storage: log seek: %w", err)
	}
	if nextSeq > s.lastSeq {
		s.lastSeq = nextSeq
	}
	return nil
}

// Append writes one entry, flushes it to the OS, and seals the active
// segment if it crossed the size threshold.
func (s *Segmented) Append(e Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bufferLocked(e); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("storage: log flush: %w", err)
	}
	return s.maybeSealLocked()
}

// Buffer stages one entry without flushing; see FileLog.Buffer.
func (s *Segmented) Buffer(e Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bufferLocked(e)
}

func (s *Segmented) bufferLocked(e Entry) error {
	s.rec = append(appendRecord(s.rec[:0], e), '\n')
	if _, err := s.w.Write(s.rec); err != nil {
		return fmt.Errorf("storage: log write: %w", err)
	}
	s.activeBytes += int64(len(s.rec))
	if e.Seq > s.lastSeq {
		s.lastSeq = e.Seq
	}
	return nil
}

// Commit flushes buffered entries (optionally fsyncing) and seals the
// active segment if the batch pushed it past the size threshold — the
// whole batch lands in one segment, so the seal point never splits a
// group commit.
func (s *Segmented) Commit(sync bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("storage: log flush: %w", err)
	}
	if sync {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("storage: log sync: %w", err)
		}
	}
	return s.maybeSealLocked()
}

// Sync fsyncs the active segment.
func (s *Segmented) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("storage: log sync: %w", err)
	}
	return nil
}

// maybeSealLocked seals the active segment once it crosses the size
// threshold: fsync, rename to the sealed name (which records the
// highest covered sequence number), directory fsync, then a fresh
// active segment. Requires the write buffer to be flushed.
func (s *Segmented) maybeSealLocked() error {
	if s.activeBytes < s.segBytes || s.activeBytes == 0 {
		return nil
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("storage: log sync: %w", err)
	}
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("storage: close segment: %w", err)
	}
	sp := s.sealedPath(s.activeIdx, s.lastSeq)
	if err := os.Rename(s.activePath(s.activeIdx), sp); err != nil {
		return fmt.Errorf("storage: seal segment: %w", err)
	}
	if err := SyncDir(s.dir); err != nil {
		return err
	}
	s.sealed = append(s.sealed, sealedSeg{idx: s.activeIdx, lastSeq: s.lastSeq, path: sp})
	return s.createActiveLocked(s.activeIdx + 1)
}

// SaveCheckpoint stores one checkpoint piece as the next file in the
// chain, atomically and durably.
func (s *Segmented) SaveCheckpoint(c Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := 0
	if n := len(s.chain); n > 0 {
		idx = s.chain[n-1].idx + 1
	}
	path := s.ckptPath(idx, c.Full)
	if err := writeFileAtomic(path, c.Data); err != nil {
		return err
	}
	s.chain = append(s.chain, ckptFile{idx: idx, full: c.Full, path: path})
	return nil
}

// CompactThrough records seq as the compaction goal and kicks off a
// background pass that unlinks every sealed segment fully covered by it
// (lastSeq <= goal) and every checkpoint piece older than the current
// chain's full base. Crash-interruption mid-pass just leaves some dead
// files for the next pass; recovery never reads them.
func (s *Segmented) CompactThrough(seq uint64) error {
	s.mu.Lock()
	if seq > s.goal {
		s.goal = seq
	}
	s.mu.Unlock()
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		if err := s.compactOnce(); err != nil {
			s.mu.Lock()
			if s.compactErr == nil {
				s.compactErr = err
			}
			s.mu.Unlock()
		}
	}()
	return nil
}

func (s *Segmented) compactOnce() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	goal := s.goal
	var deadSegs []sealedSeg
	var liveSegs []sealedSeg
	for _, seg := range s.sealed {
		if seg.lastSeq <= goal {
			deadSegs = append(deadSegs, seg)
		} else {
			liveSegs = append(liveSegs, seg)
		}
	}
	base := -1
	for i := len(s.chain) - 1; i >= 0; i-- {
		if s.chain[i].full {
			base = i
			break
		}
	}
	var deadCkpts []ckptFile
	if base > 0 {
		deadCkpts = append(deadCkpts, s.chain[:base]...)
		s.chain = append([]ckptFile(nil), s.chain[base:]...)
	}
	s.sealed = liveSegs
	s.mu.Unlock()

	if len(deadSegs) == 0 && len(deadCkpts) == 0 {
		return nil
	}
	for _, seg := range deadSegs {
		if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("storage: compact segment: %w", err)
		}
	}
	for _, c := range deadCkpts {
		if err := os.Remove(c.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("storage: compact checkpoint: %w", err)
		}
	}
	return SyncDir(s.dir)
}

// WaitCompaction blocks until all in-flight background compaction
// passes finish and returns the first error any of them hit.
func (s *Segmented) WaitCompaction() error {
	s.compactWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactErr
}

// TruncateLog drops every log entry: all sealed segments and the active
// segment's contents. Used on resync, where the log belongs to a
// replaced timeline whose sequence numbers may exceed the installed
// state's — sequence-based compaction must not be trusted to clear it.
func (s *Segmented) TruncateLog() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("storage: log flush: %w", err)
	}
	for _, seg := range s.sealed {
		if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("storage: drop segment: %w", err)
		}
	}
	s.sealed = nil
	if err := SyncDir(s.dir); err != nil {
		return err
	}
	if err := s.active.Truncate(0); err != nil {
		return fmt.Errorf("storage: log truncate: %w", err)
	}
	if _, err := s.active.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("storage: log seek: %w", err)
	}
	s.activeBytes = 0
	return nil
}

// SupportsDelta reports true.
func (s *Segmented) SupportsDelta() bool { return true }

// LogBytes returns the total byte size of sealed segments plus the
// active segment.
func (s *Segmented) LogBytes() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return 0, err
	}
	total := s.activeBytes
	for _, seg := range s.sealed {
		st, err := os.Stat(seg.path)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

// CheckpointBytes returns the byte size of the live restore chain (the
// newest full base and everything after it).
func (s *Segmented) CheckpointBytes() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := -1
	for i := len(s.chain) - 1; i >= 0; i-- {
		if s.chain[i].full {
			start = i
			break
		}
	}
	if start < 0 {
		return 0, nil
	}
	var total int64
	for i := start; i < len(s.chain); i++ {
		st, err := os.Stat(s.chain[i].path)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

// Close waits out background compaction, then flushes, fsyncs and
// closes the active segment.
func (s *Segmented) Close() error {
	werr := s.WaitCompaction()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return werr
	}
	firstErr := werr
	if err := s.w.Flush(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := s.active.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := s.active.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	s.active = nil
	return firstErr
}

// Crash simulates a process crash: in-flight compaction is allowed to
// finish (schedules stay deterministic), then the active segment is
// closed without flushing, so staged-but-uncommitted entries die.
func (s *Segmented) Crash() {
	s.compactWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active != nil {
		s.active.Close()
		s.active = nil
	}
}
