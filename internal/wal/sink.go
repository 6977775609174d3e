package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Sink is the storage backend for the write-ahead log: an ordered set of
// append-only segment files (named by the sequence number of their first
// record) plus a set of atomic snapshot blobs (named by the sequence number
// they cover). The Log drives exactly one active segment at a time; Append
// goes to the segment most recently passed to StartSegment.
//
// Durability contract: Append may buffer; Sync must make everything appended
// so far durable. WriteSnapshot must be atomic — after a crash the snapshot
// is either fully present or absent, never torn.
type Sink interface {
	// StartSegment closes the active segment (flushing it) and opens a new
	// one whose first record will carry firstSeq. Reopening an existing
	// empty segment truncates it.
	StartSegment(firstSeq int64) error
	// Append writes one encoded frame to the active segment.
	Append(frame []byte) error
	// Sync flushes buffered appends and makes them durable.
	Sync() error
	// Segments lists existing segment first-sequence numbers, ascending.
	Segments() ([]int64, error)
	// ReadSegment returns the full contents of one segment.
	ReadSegment(firstSeq int64) ([]byte, error)
	// TruncateSegment cuts a segment to size bytes (torn-tail repair).
	TruncateSegment(firstSeq int64, size int64) error
	// DropSegmentsBelow removes segments with firstSeq < bound.
	DropSegmentsBelow(bound int64) error

	// WriteSnapshot atomically persists the snapshot covering seq.
	WriteSnapshot(seq int64, payload []byte) error
	// Snapshots lists existing snapshot sequence numbers, ascending.
	Snapshots() ([]int64, error)
	// ReadSnapshot returns the payload of one snapshot.
	ReadSnapshot(seq int64) ([]byte, error)
	// DropSnapshotsBelow removes snapshots with seq < bound.
	DropSnapshotsBelow(bound int64) error

	// Close flushes and releases the active segment. The sink may be
	// reopened afterwards via a fresh Open on the same backing store.
	Close() error
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

func segName(seq int64) string  { return fmt.Sprintf("%s%016d%s", segPrefix, seq, segSuffix) }
func snapName(seq int64) string { return fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix) }

func parseName(name, prefix, suffix string) (int64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseInt(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return n, err == nil
}

// FileSink stores segments and snapshots as flat files in one directory.
// Appends go through a buffered writer; Sync flushes and fsyncs. Snapshots
// are written to a temp file, fsynced, then renamed into place so a crash
// can never expose a half-written snapshot. Directory entries are fsynced
// after create/rename/remove so the file set itself survives a crash.
type FileSink struct {
	dir string
	f   *os.File
	buf []byte // staged frames since last flush (plain slice beats bufio here: frame sizes vary)
	cur int64
	has bool
}

func NewFileSink(dir string) (*FileSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileSink{dir: dir}, nil
}

func (s *FileSink) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (s *FileSink) closeActive() error {
	if s.f == nil {
		return nil
	}
	err := s.flush()
	if serr := s.f.Sync(); err == nil {
		err = serr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f, s.has = nil, false
	return err
}

func (s *FileSink) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := s.f.Write(s.buf)
	s.buf = s.buf[:0]
	return err
}

func (s *FileSink) StartSegment(firstSeq int64) error {
	if err := s.closeActive(); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(s.dir, segName(firstSeq)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	s.f, s.cur, s.has = f, firstSeq, true
	return s.syncDir()
}

func (s *FileSink) Append(frame []byte) error {
	if s.f == nil {
		return fmt.Errorf("wal: append with no active segment")
	}
	s.buf = append(s.buf, frame...)
	return nil
}

func (s *FileSink) Sync() error {
	if s.f == nil {
		return nil
	}
	if err := s.flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

func (s *FileSink) list(prefix, suffix string) ([]int64, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []int64
	for _, e := range ents {
		if n, ok := parseName(e.Name(), prefix, suffix); ok {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func (s *FileSink) Segments() ([]int64, error) { return s.list(segPrefix, segSuffix) }

func (s *FileSink) ReadSegment(firstSeq int64) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.dir, segName(firstSeq)))
}

// OpenSegment streams one segment — recovery reads frames straight off the
// file, so replay memory is bounded by a single record.
func (s *FileSink) OpenSegment(firstSeq int64) (io.ReadCloser, error) {
	return os.Open(filepath.Join(s.dir, segName(firstSeq)))
}

func (s *FileSink) TruncateSegment(firstSeq int64, size int64) error {
	if err := os.Truncate(filepath.Join(s.dir, segName(firstSeq)), size); err != nil {
		return err
	}
	return s.syncDir()
}

func (s *FileSink) DropSegmentsBelow(bound int64) error {
	return s.drop(segPrefix, segSuffix, bound, segName)
}

func (s *FileSink) drop(prefix, suffix string, bound int64, name func(int64) string) error {
	seqs, err := s.list(prefix, suffix)
	if err != nil {
		return err
	}
	removed := false
	for _, n := range seqs {
		if n >= bound || (s.has && prefix == segPrefix && n == s.cur) {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, name(n))); err != nil {
			return err
		}
		removed = true
	}
	if !removed {
		return nil
	}
	return s.syncDir()
}

func (s *FileSink) WriteSnapshot(seq int64, payload []byte) error {
	final := filepath.Join(s.dir, snapName(seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(payload); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return s.syncDir()
}

func (s *FileSink) Snapshots() ([]int64, error) { return s.list(snapPrefix, snapSuffix) }

func (s *FileSink) ReadSnapshot(seq int64) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.dir, snapName(seq)))
}

func (s *FileSink) DropSnapshotsBelow(bound int64) error {
	return s.drop(snapPrefix, snapSuffix, bound, snapName)
}

func (s *FileSink) Close() error { return s.closeActive() }

// MemSink keeps segments and snapshots in process memory — the unit-test and
// benchmarking backend (no fsync cost, survives "restart" by reusing the same
// value). All methods are safe for use from one goroutine at a time, matching
// the Log's single-writer contract; the mutex only guards test-side peeking.
type MemSink struct {
	mu    sync.Mutex
	segs  map[int64][]byte
	snaps map[int64][]byte
	cur   int64
	has   bool
}

func NewMemSink() *MemSink {
	return &MemSink{segs: map[int64][]byte{}, snaps: map[int64][]byte{}}
}

func (s *MemSink) StartSegment(firstSeq int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.segs[firstSeq] = nil
	s.cur, s.has = firstSeq, true
	return nil
}

func (s *MemSink) Append(frame []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.has {
		return fmt.Errorf("wal: append with no active segment")
	}
	s.segs[s.cur] = append(s.segs[s.cur], frame...)
	return nil
}

func (s *MemSink) Sync() error { return nil }

func (s *MemSink) sorted(m map[int64][]byte) []int64 {
	out := make([]int64, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *MemSink) Segments() ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sorted(s.segs), nil
}

func (s *MemSink) ReadSegment(firstSeq int64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.segs[firstSeq]
	if !ok {
		return nil, os.ErrNotExist
	}
	return append([]byte(nil), b...), nil
}

// OpenSegment streams one segment from a stable copy of its bytes.
func (s *MemSink) OpenSegment(firstSeq int64) (io.ReadCloser, error) {
	b, err := s.ReadSegment(firstSeq)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}

func (s *MemSink) TruncateSegment(firstSeq int64, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.segs[firstSeq]
	if !ok || int64(len(b)) < size {
		return fmt.Errorf("wal: truncate %d to %d: bad segment", firstSeq, size)
	}
	s.segs[firstSeq] = b[:size]
	return nil
}

func (s *MemSink) DropSegmentsBelow(bound int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for n := range s.segs {
		if n < bound && !(s.has && n == s.cur) {
			delete(s.segs, n)
		}
	}
	return nil
}

func (s *MemSink) WriteSnapshot(seq int64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snaps[seq] = append([]byte(nil), payload...)
	return nil
}

func (s *MemSink) Snapshots() ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sorted(s.snaps), nil
}

func (s *MemSink) ReadSnapshot(seq int64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.snaps[seq]
	if !ok {
		return nil, os.ErrNotExist
	}
	return append([]byte(nil), b...), nil
}

func (s *MemSink) DropSnapshotsBelow(bound int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for n := range s.snaps {
		if n < bound {
			delete(s.snaps, n)
		}
	}
	return nil
}

func (s *MemSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.has = false
	return nil
}
