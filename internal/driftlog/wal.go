// Write-ahead log for the drift log: the durability layer the paper
// gets for free from Aurora (PAPER.md §2). Every ingest batch is
// appended to the active segment as one length-prefixed, CRC32C-checked
// record whose payload is the batch's NZB1 frame (frame.go) — the same
// bytes a binary ingest request carries — and fsynced before the append
// returns, so an acknowledged entry survives process death by
// construction. Segments rotate at a size threshold; background
// compaction folds sealed segments (plus the previous snapshot) into a
// fresh snapshot by copying their records, checked but not decoded, and
// deletes them, bounding replay's file count. A snapshot has the segment
// layout, so loading one is replaying it. Replay on open decodes each
// frame straight into the ordinary append path, which rebuilds the
// per-(attribute, value) bitset index too — a replayed store is
// query-identical to the live store it mirrors.
//
// Replay still reads the formats earlier versions wrote: row-layout
// records (versions 1 and 2, decodeWALPayload) inside segments and
// snapshots, and gob snapshots (readFrom), which the first compaction
// rewrites as frame records.
//
// Crash-recovery contract:
//
//   - an AppendColumns that returned nil is durable: its record is fully
//     fsynced before the call returns, and replay restores it;
//   - a batch whose frame exceeds the record bound is refused with
//     ErrFrameTooLarge before anything is written, and the WAL stays
//     healthy;
//   - a torn final record (the write the crash interrupted) is detected
//     by length/CRC, truncated, and reported via RecoveryInfo — it
//     never blocks startup;
//   - corruption anywhere else (a sealed segment, a snapshot, a bad
//     header) refuses to open with a typed *CorruptError, never a
//     panic;
//   - compaction is crash-atomic: the new snapshot is written to a
//     temp file, fsynced, renamed, and only then are the folded
//     segments deleted. A crash between those steps leaves either the
//     old state or a snapshot plus already-covered segments, which
//     replay skips (and cleans up) by index.
package driftlog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// walMagic opens every segment and snapshot file: 5 magic bytes plus a
// 3-digit format version.
const walMagic = "NZWAL001"

// maxWALRecord bounds a single record's payload, one frame; larger
// lengths mark corruption.
const maxWALRecord = frameHeaderSize + maxFramePayload

// Sticky WAL failure modes.
var (
	// ErrWALClosed marks appends after Close.
	ErrWALClosed = errors.New("driftlog: wal closed")
	// ErrWALSevered marks appends after Sever — the chaos harness's
	// simulated kill -9.
	ErrWALSevered = errors.New("driftlog: wal severed")
	// ErrWALReadOnly marks appends on a replay-only WAL.
	ErrWALReadOnly = errors.New("driftlog: wal opened read-only")
)

// CorruptError is the typed replay failure: corruption outside the
// tolerated torn-tail position (a sealed segment, a snapshot, a
// foreign or damaged header). Replay never panics: it either recovers
// a prefix or returns one of these.
type CorruptError struct {
	// Path is the damaged file.
	Path string
	// Offset is the byte offset of the first bad frame (0 for header
	// and snapshot damage).
	Offset int64
	// Reason describes the failed check.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("driftlog: wal corrupt: %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// WALOptions parameterizes OpenWAL.
type WALOptions struct {
	// SegmentBytes is the rotation threshold: the active segment seals
	// once it exceeds this size (default 4 MiB).
	SegmentBytes int64
	// CompactSegments, when positive, triggers background compaction
	// whenever at least this many sealed segments have accumulated.
	// Zero disables automatic compaction (Compact can still be called
	// explicitly).
	CompactSegments int
	// ReadOnly replays without mutating the directory: no tail
	// truncation, no cleanup, no active segment; AppendColumns fails with
	// ErrWALReadOnly. For inspectors and replay benchmarks.
	ReadOnly bool

	// fs substitutes the filesystem (crash harness); nil means the OS.
	fs walFS
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.fs == nil {
		o.fs = osFS{}
	}
	return o
}

// RecoveryInfo reports what replay found and did.
type RecoveryInfo struct {
	// SnapshotRows is the row count loaded from the snapshot (0 when
	// none existed).
	SnapshotRows int64
	// Segments is the number of segment files replayed; Records and
	// Rows count what they contained.
	Segments int
	Records  int
	Rows     int64
	// TornTail reports that a torn final record was found; TornFile and
	// TornBytes identify the file and how many trailing bytes were
	// dropped (and, unless read-only, truncated away).
	TornTail  bool
	TornFile  string
	TornBytes int64
}

// WALStats is an operational snapshot of the WAL.
type WALStats struct {
	// ActiveSegment is the index of the segment currently appended to;
	// ActiveBytes its size so far.
	ActiveSegment uint64
	ActiveBytes   int64
	// SealedSegments counts rotated segments not yet folded into the
	// snapshot; SnapshotSegment is the highest segment index the
	// snapshot covers (-1 when no snapshot exists).
	SealedSegments  int
	SnapshotSegment int64
	// Appends, AppendedBytes, Rotations and Compactions count work done
	// since open.
	Appends       int64
	AppendedBytes int64
	Rotations     int64
	Compactions   int64
}

// WAL is the drift log's write-ahead log. All methods are safe for
// concurrent use; appends serialize on one mutex (the fsync dominates).
type WAL struct {
	dir  string
	opts WALOptions
	fs   walFS
	rec  RecoveryInfo

	mu      sync.Mutex
	err     error // sticky failure; nil while healthy
	closed  bool
	cur     walFile
	curIdx  uint64
	curSize int64
	sealed  []uint64 // rotated, not yet compacted, ascending
	snap    int64    // highest segment index folded into the snapshot; -1 none
	buf     []byte   // frame scratch

	appends       atomic.Int64
	appendedBytes atomic.Int64
	rotations     atomic.Int64
	compactions   atomic.Int64
	compacting    atomic.Bool
	bg            sync.WaitGroup
	compactErr    atomic.Value // last background compaction error (error)
}

// segName / snapName render the on-disk naming scheme. Segment indexes
// start at 1 and only ever grow; a snapshot's index is the highest
// segment folded into it, which is all replay needs to know to skip
// covered segments.
func segName(idx uint64) string  { return fmt.Sprintf("wal-%016x.seg", idx) }
func snapName(idx uint64) string { return fmt.Sprintf("snapshot-%016x.driftlog", idx) }

func parseWALName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	var idx uint64
	if _, err := fmt.Sscanf(hex, "%016x", &idx); err != nil {
		return 0, false
	}
	return idx, true
}

func parseSegName(name string) (uint64, bool)  { return parseWALName(name, "wal-", ".seg") }
func parseSnapName(name string) (uint64, bool) { return parseWALName(name, "snapshot-", ".driftlog") }

// OpenWAL opens (creating if needed) the WAL in dir and replays its
// contents — snapshot first, then every uncovered segment in index
// order — into s, which is normally a fresh store. On success the WAL
// is ready for appends (unless opts.ReadOnly). A torn final record is
// truncated and reported via Recovery(); any other damage returns a
// *CorruptError and s must be discarded (it may hold a partial prefix).
func OpenWAL(dir string, s *Store, opts WALOptions) (*WAL, error) {
	if s == nil {
		return nil, errors.New("driftlog: wal: nil store")
	}
	opts = opts.withDefaults()
	w := &WAL{dir: dir, opts: opts, fs: opts.fs, snap: -1}
	if !opts.ReadOnly {
		if err := w.fs.MkdirAll(dir); err != nil {
			return nil, fmt.Errorf("driftlog: wal: mkdir %s: %w", dir, err)
		}
	}
	names, err := w.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("driftlog: wal: list %s: %w", dir, err)
	}
	var segs, snaps []uint64
	for _, name := range names {
		if idx, ok := parseSegName(name); ok {
			segs = append(segs, idx)
			continue
		}
		if idx, ok := parseSnapName(name); ok {
			snaps = append(snaps, idx)
			continue
		}
		// Leftover temp files are abandoned compactions: discard.
		if strings.HasSuffix(name, ".tmp") && !opts.ReadOnly {
			_ = w.fs.Remove(filepath.Join(dir, name))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	if len(snaps) > 0 {
		best := snaps[len(snaps)-1]
		rows, err := w.loadSnapshot(s, best)
		if err != nil {
			return nil, err
		}
		w.snap = int64(best)
		w.rec.SnapshotRows = rows
		if !opts.ReadOnly {
			for _, idx := range snaps[:len(snaps)-1] {
				_ = w.fs.Remove(filepath.Join(dir, snapName(idx)))
			}
		}
	}

	maxIdx := uint64(0)
	if w.snap >= 0 {
		maxIdx = uint64(w.snap)
	}
	for i, idx := range segs {
		if int64(idx) <= w.snap {
			// Covered by the snapshot: a compaction died between the
			// snapshot rename and the segment deletes. Finish the job.
			if !opts.ReadOnly {
				_ = w.fs.Remove(filepath.Join(dir, segName(idx)))
			}
			continue
		}
		tail := i == len(segs)-1
		keep, err := w.replaySegment(filepath.Join(dir, segName(idx)), s, tail)
		if err != nil {
			return nil, err
		}
		if keep {
			w.sealed = append(w.sealed, idx)
		}
		if idx > maxIdx {
			maxIdx = idx
		}
	}

	if opts.ReadOnly {
		w.closed = true
		w.err = ErrWALReadOnly
		return w, nil
	}
	w.curIdx = maxIdx + 1
	if err := w.startSegmentLocked(); err != nil {
		return nil, err
	}
	w.maybeCompactLocked()
	return w, nil
}

// Recovery returns what replay found when the WAL was opened.
func (w *WAL) Recovery() RecoveryInfo { return w.rec }

// Dir returns the WAL directory.
func (w *WAL) Dir() string { return w.dir }

// Stats returns the current operational snapshot.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	st := WALStats{
		ActiveSegment:   w.curIdx,
		ActiveBytes:     w.curSize,
		SealedSegments:  len(w.sealed),
		SnapshotSegment: w.snap,
	}
	w.mu.Unlock()
	st.Appends = w.appends.Load()
	st.AppendedBytes = w.appendedBytes.Load()
	st.Rotations = w.rotations.Load()
	st.Compactions = w.compactions.Load()
	return st
}

// loadSnapshot reads one snapshot file into s, returning the row count.
// A snapshot has the segment layout and loads like a sealed segment; a
// legacy gob snapshot loads through readFrom. Every failure is a
// *CorruptError: the snapshot was written atomically, so a damaged one is
// damage, not a torn write.
func (w *WAL) loadSnapshot(s *Store, idx uint64) (rows int64, err error) {
	_, err = w.scanRecords(filepath.Join(w.dir, snapName(idx)), false, func(rec []byte) error {
		n, err := applyRecord(s, rec[8:])
		rows += int64(n)
		return err
	}, func(entries []Entry, samples [][]float64) error {
		s.appendRows(entries, samples)
		rows += int64(len(entries))
		return nil
	})
	return rows, err
}

// replaySegment applies one segment's records, in order, to s and counts
// them into the recovery report; tail and keep are scanRecords'.
func (w *WAL) replaySegment(path string, s *Store, tail bool) (keep bool, err error) {
	w.rec.Segments++
	return w.scanRecords(path, tail, func(rec []byte) error {
		n, err := applyRecord(s, rec[8:])
		if err == nil {
			w.rec.Records++
			w.rec.Rows += int64(n)
		}
		return err
	}, nil)
}

// applyRecord appends one CRC-checked record payload to s and returns its
// row count. The payload's first byte tells its format: an NZB1 frame
// goes straight to appendColumns; a legacy row record (version 1 or 2)
// goes through decodeWALPayload.
func applyRecord(s *Store, payload []byte) (int, error) {
	if bytes.HasPrefix(payload, []byte(frameMagic)) {
		b, err := DecodeFrame(payload, 0)
		if err != nil {
			return 0, err
		}
		s.appendColumns(b)
		return b.Rows(), nil
	}
	entries, samples, err := decodeWALPayload(payload)
	if err != nil {
		return 0, err
	}
	s.appendRows(entries, samples)
	return len(entries), nil
}

// scanRecords hands the records of one segment-layout file (segment or
// snapshot) to fn in order, each as its 8-byte [len][crc] header followed
// by its payload, after the length and CRC checks. fn's slice is reused
// by the next record. tail marks the final (most recently written)
// segment, whose last record is allowed to be torn: the scan stops there,
// truncates the file (unless read-only), and records the fact. Damage
// anywhere else — or a file whose header is present but wrong — is a
// *CorruptError, and so is an error from fn. keep=false means the file
// was removed entirely (a tail file that never got a complete header).
// When legacy is non-nil (a snapshot) and the file opens with the gob
// header, it is a legacy gob snapshot: readFrom hands its rows to legacy
// instead, and fn is never called.
func (w *WAL) scanRecords(path string, tail bool, fn func(rec []byte) error, legacy func([]Entry, [][]float64) error) (keep bool, err error) {
	f, err := w.fs.Open(path)
	if err != nil {
		return false, &CorruptError{Path: path, Reason: fmt.Sprintf("open: %v", err)}
	}
	br := bufio.NewReaderSize(f, 64<<10)
	if head, _ := br.Peek(len(persistHeader)); legacy != nil && string(head) == persistHeader {
		defer f.Close()
		if _, err := readFrom(br, legacy); err != nil {
			return true, &CorruptError{Path: path, Reason: fmt.Sprintf("snapshot: %v", err)}
		}
		return true, nil
	}

	torn := func(off int64, reason string) (bool, error) {
		f.Close()
		if !tail {
			return false, &CorruptError{Path: path, Offset: off, Reason: reason}
		}
		// Tolerated torn tail: drop everything from off on.
		w.rec.TornTail = true
		w.rec.TornFile = path
		if !w.opts.ReadOnly {
			if off <= int64(len(walMagic)) {
				// Not even a whole header survived — the file carries
				// nothing; remove it.
				if rerr := w.fs.Remove(path); rerr != nil {
					return false, fmt.Errorf("driftlog: wal: drop torn segment %s: %w", path, rerr)
				}
				return false, nil
			}
			if terr := w.fs.Truncate(path, off); terr != nil {
				return false, fmt.Errorf("driftlog: wal: truncate torn tail of %s: %w", path, terr)
			}
		}
		return off > int64(len(walMagic)), nil
	}

	hdr := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, hdr); err != nil {
		// Shorter than a header: only a torn creation can produce this.
		keep, terr := torn(0, "short header")
		if terr != nil {
			return keep, terr
		}
		w.rec.TornBytes += int64(len(hdr)) // approximation: whole file dropped
		return keep, nil
	}
	if string(hdr) != walMagic {
		f.Close()
		return false, &CorruptError{Path: path, Reason: fmt.Sprintf("bad header %q", hdr)}
	}

	off := int64(len(walMagic))
	var fh [8]byte
	var rec bytes.Buffer
	for {
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			if err == io.EOF {
				break // clean end at a record boundary
			}
			return torn(off, "short frame header")
		}
		length := binary.LittleEndian.Uint32(fh[0:4])
		want := binary.LittleEndian.Uint32(fh[4:8])
		if length == 0 || length > maxWALRecord {
			return torn(off, fmt.Sprintf("implausible record length %d", length))
		}
		rec.Reset()
		rec.Write(fh[:])
		if n, err := io.CopyN(&rec, br, int64(length)); err != nil || n != int64(length) {
			return torn(off, "short record payload")
		}
		if got := crc32.Checksum(rec.Bytes()[8:], castagnoli); got != want {
			return torn(off, fmt.Sprintf("crc mismatch: got %08x want %08x", got, want))
		}
		if err := fn(rec.Bytes()); err != nil {
			return torn(off, fmt.Sprintf("record decode: %v", err))
		}
		off += 8 + int64(length)
	}
	return true, f.Close()
}

// startSegmentLocked creates the active segment and makes its existence
// durable.
func (w *WAL) startSegmentLocked() error {
	path := filepath.Join(w.dir, segName(w.curIdx))
	f, err := w.fs.Create(path)
	if err != nil {
		return fmt.Errorf("driftlog: wal: create segment: %w", err)
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		return fmt.Errorf("driftlog: wal: segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("driftlog: wal: segment header sync: %w", err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		return fmt.Errorf("driftlog: wal: segment dir sync: %w", err)
	}
	w.cur = f
	w.curSize = int64(len(walMagic))
	return nil
}

// AppendColumns writes one record holding the batch's frame and fsyncs
// it. When it returns nil the batch is durable: a crash at any later
// point leaves it recoverable by replay. A batch too large for one
// record is refused with ErrFrameTooLarge before anything is written. A
// write or sync failure poisons the WAL (the segment tail may be torn, so
// appending after it could hide durable records behind garbage); every
// subsequent append returns the original error. The batch must already
// be validated.
func (w *WAL) AppendColumns(b *ColumnarBatch) error {
	if b.Rows() == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.errLocked(); err != nil {
		return err
	}
	rec, err := appendRecord(w.buf[:0], b)
	if err != nil {
		return err
	}
	w.buf = rec
	if _, err := w.cur.Write(w.buf); err != nil {
		return w.failLocked(fmt.Errorf("driftlog: wal append: %w", err))
	}
	if err := w.cur.Sync(); err != nil {
		return w.failLocked(fmt.Errorf("driftlog: wal sync: %w", err))
	}
	w.curSize += int64(len(w.buf))
	w.appends.Add(1)
	w.appendedBytes.Add(int64(len(w.buf)))
	if w.curSize >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			// The record itself is durable; rotation failure only
			// poisons future appends.
			return w.failLocked(err)
		}
		w.maybeCompactLocked()
	}
	return nil
}

// Err reports why the next append would be refused — the sticky failure
// (poisoned, severed, read-only) or ErrWALClosed — and nil while the WAL
// is healthy.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.errLocked()
}

func (w *WAL) errLocked() error {
	if w.err == nil && w.closed {
		return ErrWALClosed
	}
	return w.err
}

// failLocked records a sticky failure and returns it.
func (w *WAL) failLocked(err error) error {
	w.err = err
	if w.cur != nil {
		_ = w.cur.Close()
		w.cur = nil
	}
	return err
}

// Rotate seals the active segment and starts a new one. Exposed for
// tests and operational tooling; the append path rotates automatically
// at SegmentBytes.
func (w *WAL) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.err != nil {
		if w.err != nil {
			return w.err
		}
		return ErrWALClosed
	}
	if err := w.rotateLocked(); err != nil {
		return w.failLocked(err)
	}
	w.maybeCompactLocked()
	return nil
}

func (w *WAL) rotateLocked() error {
	if err := w.cur.Sync(); err != nil {
		return fmt.Errorf("driftlog: wal rotate sync: %w", err)
	}
	if err := w.cur.Close(); err != nil {
		return fmt.Errorf("driftlog: wal rotate close: %w", err)
	}
	w.cur = nil
	w.sealed = append(w.sealed, w.curIdx)
	w.curIdx++
	w.rotations.Add(1)
	return w.startSegmentLocked()
}

// maybeCompactLocked kicks off a background compaction when the sealed
// backlog crossed the threshold. Single-flight: a running compaction
// absorbs later triggers.
func (w *WAL) maybeCompactLocked() {
	if w.opts.CompactSegments <= 0 || len(w.sealed) < w.opts.CompactSegments {
		return
	}
	if !w.compacting.CompareAndSwap(false, true) {
		return
	}
	w.bg.Add(1)
	go func() {
		defer w.bg.Done()
		defer w.compacting.Store(false)
		if err := w.Compact(); err != nil {
			w.compactErr.Store(err)
		}
	}()
}

// CompactionErr returns the last background compaction failure, if any
// (explicit Compact calls report their own errors).
func (w *WAL) CompactionErr() error {
	if err, ok := w.compactErr.Load().(error); ok {
		return err
	}
	return nil
}

// Compact folds every currently sealed segment, together with the
// existing snapshot, into a new snapshot, then deletes the folded
// files. The fold copies records, so the WAL's owner is never touched;
// appends and rotations proceed concurrently (segments sealed after the
// fold began are simply left for the next run). Crash-atomic: temp
// write → fsync → rename → dir fsync → deletes.
func (w *WAL) Compact() error {
	w.mu.Lock()
	if w.closed && w.err != nil && !errors.Is(w.err, ErrWALReadOnly) {
		err := w.err
		w.mu.Unlock()
		return err
	}
	sealed := append([]uint64(nil), w.sealed...)
	snap := w.snap
	w.mu.Unlock()
	if len(sealed) == 0 {
		return nil
	}

	if w.severed() {
		return ErrWALSevered
	}
	newIdx := sealed[len(sealed)-1]
	final := filepath.Join(w.dir, snapName(newIdx))
	tmp := final + ".tmp"
	f, err := w.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("driftlog: wal compact: create snapshot: %w", err)
	}
	if err := w.writeSnapshot(f, snap, sealed); err != nil {
		f.Close()
		_ = w.fs.Remove(tmp)
		return fmt.Errorf("driftlog: wal compact: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = w.fs.Remove(tmp)
		return fmt.Errorf("driftlog: wal compact: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = w.fs.Remove(tmp)
		return fmt.Errorf("driftlog: wal compact: close snapshot: %w", err)
	}
	if w.severed() {
		_ = w.fs.Remove(tmp)
		return ErrWALSevered
	}
	if err := w.fs.Rename(tmp, final); err != nil {
		_ = w.fs.Remove(tmp)
		return fmt.Errorf("driftlog: wal compact: publish snapshot: %w", err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		return fmt.Errorf("driftlog: wal compact: dir sync: %w", err)
	}

	// Commit: the rename is durable, so the folded files are garbage.
	w.mu.Lock()
	w.snap = int64(newIdx)
	w.sealed = w.sealed[len(sealed):]
	w.mu.Unlock()
	for _, idx := range sealed {
		_ = w.fs.Remove(filepath.Join(w.dir, segName(idx)))
	}
	if snap >= 0 {
		_ = w.fs.Remove(filepath.Join(w.dir, snapName(uint64(snap))))
	}
	w.compactions.Add(1)
	return nil
}

// writeSnapshot writes the fold of snapshot snap (-1: none) and the
// sealed segments to dst in the segment layout: the header, then every
// record of the snapshot and of each segment, in that order (the
// canonical order), byte for byte after scanRecords' length and CRC
// checks. A legacy gob snapshot is rewritten as frame records — the one
// conversion its first fold makes — halving a batch until its frame fits
// the record bound. Sealed files and snapshots are immutable, so this
// needs no lock.
func (w *WAL) writeSnapshot(dst io.Writer, snap int64, sealed []uint64) error {
	// bufio keeps the first write error and fails every later write, so
	// the copies below report it once, at Flush.
	bw := bufio.NewWriterSize(dst, 64<<10)
	bw.WriteString(walMagic)
	copyRecord := func(rec []byte) error {
		bw.Write(rec)
		return nil
	}
	var rec []byte
	var convert func([]Entry, [][]float64) error
	convert = func(entries []Entry, samples [][]float64) error {
		b := ColumnsFromEntries(entries)
		b.Samples = samples
		var err error
		rec, err = appendRecord(rec[:0], b)
		if errors.Is(err, ErrFrameTooLarge) && len(entries) > 1 {
			h := len(entries) / 2
			if err := convert(entries[:h], samples[:h]); err != nil {
				return err
			}
			return convert(entries[h:], samples[h:])
		}
		bw.Write(rec)
		return err
	}
	if snap >= 0 {
		if _, err := w.scanRecords(filepath.Join(w.dir, snapName(uint64(snap))), false, copyRecord, convert); err != nil {
			return err
		}
	}
	for _, idx := range sealed {
		if _, err := w.scanRecords(filepath.Join(w.dir, segName(idx)), false, copyRecord, nil); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// severed reports whether Sever has fired (checked at compaction commit
// points so a simulated kill stops publishing new files).
func (w *WAL) severed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed && errors.Is(w.err, ErrWALSevered)
}

// Close waits for background compaction, makes the active segment
// durable, and shuts the WAL down. Further appends fail with
// ErrWALClosed.
func (w *WAL) Close() error {
	w.bg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.cur != nil {
		if err := w.cur.Sync(); err != nil {
			_ = w.cur.Close()
			w.cur = nil
			return fmt.Errorf("driftlog: wal close sync: %w", err)
		}
		if err := w.cur.Close(); err != nil {
			w.cur = nil
			return fmt.Errorf("driftlog: wal close: %w", err)
		}
		w.cur = nil
	}
	return nil
}

// Sever abruptly disables the WAL, simulating process death for the
// chaos harness: nothing is flushed or synced, the active segment
// handle is dropped, and every subsequent append fails with
// ErrWALSevered. Unlike Close it does not wait for a graceful end of
// in-flight work — it only waits for the background compactor to
// observe the kill, so a successor WAL can safely open the directory.
func (w *WAL) Sever() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		w.err = ErrWALSevered
		if w.cur != nil {
			_ = w.cur.Close()
			w.cur = nil
		}
	}
	w.mu.Unlock()
	w.bg.Wait()
}

// ---- record encoding -------------------------------------------------

// appendRecord appends one record ([len][crc][payload]) whose payload is
// the frame of b — byte for byte what a binary ingest request for the
// batch carries. Records decode independently, so compaction and replay
// never need decoder state.
func appendRecord(dst []byte, b *ColumnarBatch) ([]byte, error) {
	base := len(dst)
	dst, err := appendFrame(append(dst, 0, 0, 0, 0, 0, 0, 0, 0), b)
	if err != nil {
		return nil, err
	}
	payload := dst[base+8:]
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[base+4:], crc32.Checksum(payload, castagnoli))
	return dst, nil
}

// decodeWALPayload decodes one CRC-verified legacy row record payload —
// version 1, or version 2 with a sample section — into its rows and
// sample column (nil for version 1). These records put every row's
// attribute names and values inline; no writer produces them any more.
// Every malformation returns an error (never a panic or an
// over-allocation): claimed counts are checked against the bytes
// actually present.
func decodeWALPayload(p []byte) ([]Entry, [][]float64, error) {
	d := &reader{p: p}
	vb, err := d.bytes(1, "record version")
	if err != nil {
		return nil, nil, err
	}
	ver := vb[0]
	if ver != 1 && ver != 2 {
		return nil, nil, fmt.Errorf("unsupported record version %d", ver)
	}
	count, err := d.uvarint("entry count")
	if err != nil {
		return nil, nil, err
	}
	// An entry needs at least 4 bytes (time, flags, sample, attr
	// count), so a count beyond len/4+1 is corrupt — and, crucially,
	// never drives the allocation below.
	if count > uint64(len(d.p)/4+1) {
		return nil, nil, fmt.Errorf("entry count %d exceeds payload capacity", count)
	}
	entries := make([]Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		nanos, err := d.varint("time")
		if err != nil {
			return nil, nil, fmt.Errorf("entry %d: %w", i, err)
		}
		fb, err := d.bytes(1, "flags")
		if err != nil {
			return nil, nil, fmt.Errorf("entry %d: %w", i, err)
		}
		if fb[0] > 1 {
			return nil, nil, fmt.Errorf("entry %d: unknown flags %#x", i, fb[0])
		}
		sample, err := d.varint("sample id")
		if err != nil {
			return nil, nil, fmt.Errorf("entry %d: %w", i, err)
		}
		nattrs, err := d.uvarint("attr count")
		if err != nil {
			return nil, nil, fmt.Errorf("entry %d: %w", i, err)
		}
		if nattrs > uint64(len(d.p)/2+1) {
			return nil, nil, fmt.Errorf("entry %d: attr count %d exceeds payload capacity", i, nattrs)
		}
		attrs := make(map[string]string, nattrs)
		for a := uint64(0); a < nattrs; a++ {
			k, err := d.str("attr name")
			if err != nil {
				return nil, nil, fmt.Errorf("entry %d attr %d: %w", i, a, err)
			}
			v, err := d.str("attr value")
			if err != nil {
				return nil, nil, fmt.Errorf("entry %d attr %d: %w", i, a, err)
			}
			attrs[k] = v
		}
		entries = append(entries, Entry{
			Time:     time.Unix(0, nanos).UTC(),
			Drift:    fb[0]&1 != 0,
			SampleID: sample,
			Attrs:    attrs,
		})
	}
	var samples [][]float64
	if ver == 2 {
		if samples, err = decodeSampleSection(d, len(entries)); err != nil {
			return nil, nil, err
		}
	}
	if len(d.p) != 0 {
		return nil, nil, fmt.Errorf("%d trailing bytes after last entry", len(d.p))
	}
	return entries, samples, nil
}
