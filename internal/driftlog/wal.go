// Write-ahead log for the drift log: the durability layer the paper
// gets for free from Aurora (PAPER.md §2). Every ingest batch is
// appended to the active segment as one length-prefixed, CRC32C-checked,
// versioned record and fsynced before the append returns, so an
// acknowledged entry survives process death by construction. Segments
// rotate at a size threshold; background compaction folds sealed
// segments (plus the previous snapshot) into a fresh snapshot and
// deletes them, bounding both disk usage and replay time. Replay on
// open rebuilds the rows and, because it goes through the ordinary
// append path, the per-(attribute, value) bitset index too — a replayed
// store is query-identical to the live store it mirrors.
//
// Crash-recovery contract:
//
//   - an AppendColumns that returned nil is durable: its record is fully
//     fsynced before the call returns, and replay restores it;
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
	"math"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// walMagic opens every segment file: 5 magic bytes plus a 3-digit
// format version.
const walMagic = "NZWAL001"

// walRecordVersion is the payload format version inside a record frame
// (bumped independently of the segment header so old segments stay
// readable when the record encoding evolves). Version 2 appended the
// sample section; version 1 records still replay, without vectors.
const walRecordVersion = 2

// maxWALRecord bounds a single record frame's payload; larger lengths
// mark corruption (a batch is at most a few thousand entries).
const maxWALRecord = 64 << 20

// walCRC is the Castagnoli table (CRC32C — hardware-accelerated on
// amd64/arm64).
var walCRC = crc32.MakeTable(crc32.Castagnoli)

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
		keep, err := w.replaySegment(filepath.Join(dir, segName(idx)), s.appendRows, tail)
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
// A snapshot is one or more WriteTo chunks back to back (Compact appends
// a chunk per fold), read in order until EOF. Every failure is a
// *CorruptError: the snapshot was written atomically, so a damaged one is
// damage, not a torn write.
func (w *WAL) loadSnapshot(s *Store, idx uint64) (int64, error) {
	path := filepath.Join(w.dir, snapName(idx))
	f, err := w.fs.Open(path)
	if err != nil {
		return 0, &CorruptError{Path: path, Reason: fmt.Sprintf("open snapshot: %v", err)}
	}
	defer f.Close()
	// ReadFrom reuses this reader and stops at its chunk's last row.
	br := bufio.NewReaderSize(f, 64<<10)
	var total int64
	for chunk := 0; ; chunk++ {
		if _, err := br.Peek(1); err == io.EOF && chunk > 0 {
			return total, nil
		}
		n, err := s.ReadFrom(br)
		total += n
		if err != nil {
			return total, &CorruptError{Path: path, Reason: fmt.Sprintf("snapshot: %v", err)}
		}
	}
}

// copySnapshot appends the bytes of snapshot idx to dst unparsed.
func (w *WAL) copySnapshot(dst io.Writer, idx uint64) error {
	f, err := w.fs.Open(filepath.Join(w.dir, snapName(idx)))
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(dst, f)
	return err
}

// replaySegment hands one segment's records, in order, to apply. tail marks the
// final (most recently written) segment, whose last record is allowed
// to be torn: replay stops there, truncates the file (unless
// read-only), and records the fact. Damage in a non-tail segment — or
// a tail segment whose header is present but wrong — is a
// *CorruptError. keep=false means the file was removed entirely (a
// tail file that never got a complete header).
func (w *WAL) replaySegment(path string, apply func([]Entry, [][]float64), tail bool) (keep bool, err error) {
	f, err := w.fs.Open(path)
	if err != nil {
		return false, &CorruptError{Path: path, Reason: fmt.Sprintf("open segment: %v", err)}
	}
	br := bufio.NewReaderSize(f, 64<<10)

	torn := func(off int64, reason string) (bool, error) {
		if !tail {
			f.Close()
			return false, &CorruptError{Path: path, Offset: off, Reason: reason}
		}
		// Tolerated torn tail: drop everything from off on.
		f.Close()
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
		return false, &CorruptError{Path: path, Reason: fmt.Sprintf("bad segment header %q", hdr)}
	}

	off := int64(len(walMagic))
	var fh [8]byte
	var pbuf bytes.Buffer
	w.rec.Segments++
	for {
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			if err == io.EOF {
				break // clean end at a frame boundary
			}
			keep, terr := torn(off, "short frame header")
			if keep || terr != nil {
				return keep, terr
			}
			return keep, terr
		}
		length := binary.LittleEndian.Uint32(fh[0:4])
		want := binary.LittleEndian.Uint32(fh[4:8])
		if length == 0 || length > maxWALRecord {
			return torn(off, fmt.Sprintf("implausible record length %d", length))
		}
		pbuf.Reset()
		if n, err := io.CopyN(&pbuf, br, int64(length)); err != nil || n != int64(length) {
			return torn(off, "short record payload")
		}
		payload := pbuf.Bytes()
		if got := crc32.Checksum(payload, walCRC); got != want {
			return torn(off, fmt.Sprintf("crc mismatch: got %08x want %08x", got, want))
		}
		entries, samples, derr := decodeWALPayload(payload)
		if derr != nil {
			return torn(off, fmt.Sprintf("record decode: %v", derr))
		}
		apply(entries, samples)
		w.rec.Records++
		w.rec.Rows += int64(len(entries))
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

// AppendColumns writes one record holding the batch and fsyncs it. When
// it returns nil the batch is durable: a crash at any later point leaves
// it recoverable by replay. A write or sync failure poisons the WAL (the
// segment tail may be torn, so appending after it could hide durable
// records behind garbage); every subsequent append returns the original
// error. The batch must already be validated.
func (w *WAL) AppendColumns(b *ColumnarBatch) error {
	if b.Rows() == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.errLocked(); err != nil {
		return err
	}
	w.buf = appendWALFrameColumns(w.buf[:0], b)
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
// files. The fold replays into a private store, so the WAL's owner is
// never touched; appends and rotations proceed concurrently (segments
// sealed after the fold began are simply left for the next run).
// Crash-atomic: temp write → fsync → rename → dir fsync → deletes.
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

	// Fold: the sealed segments' rows, in record order (the canonical
	// order), are written as one chunk after a byte copy of the existing
	// snapshot, so no fold decodes or indexes rows an earlier one already
	// wrote. Sealed files and snapshots are immutable, so this needs no
	// lock.
	var rows []wireEntry
	for _, idx := range sealed {
		if _, err := w.replaySegment(filepath.Join(w.dir, segName(idx)), func(entries []Entry, samples [][]float64) {
			rows = appendWireEntries(rows, entries, samples)
		}, false); err != nil {
			return err
		}
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
	if snap >= 0 {
		if err := w.copySnapshot(f, uint64(snap)); err != nil {
			f.Close()
			_ = w.fs.Remove(tmp)
			return fmt.Errorf("driftlog: wal compact: copy snapshot: %w", err)
		}
	}
	if err := writeChunk(f, rows); err != nil {
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

// appendWALFrameColumns appends one framed record ([len][crc][payload]) to
// dst. The payload is a versioned, self-contained encoding of the
// batch, row by row with each row's attributes in sorted name order,
// then the sample section (AppendSampleSection): records decode
// independently, so compaction and replay never need decoder state.
func appendWALFrameColumns(dst []byte, b *ColumnarBatch) []byte {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	p := len(dst)
	dst = append(dst, walRecordVersion)
	rows := b.Rows()
	dst = binary.AppendUvarint(dst, uint64(rows))
	order := make([]int, len(b.Cols))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return b.Cols[order[i]].Name < b.Cols[order[j]].Name })
	for r := 0; r < rows; r++ {
		dst = binary.AppendVarint(dst, b.Times[r])
		var flags byte
		if b.Drift[r] {
			flags = 1
		}
		dst = append(dst, flags)
		dst = binary.AppendVarint(dst, b.SampleIDs[r])
		nattrs := 0
		for _, ci := range order {
			if b.Cols[ci].IDs[r] != 0 {
				nattrs++
			}
		}
		dst = binary.AppendUvarint(dst, uint64(nattrs))
		for _, ci := range order {
			col := &b.Cols[ci]
			id := col.IDs[r]
			if id == 0 {
				continue
			}
			dst = binary.AppendUvarint(dst, uint64(len(col.Name)))
			dst = append(dst, col.Name...)
			v := col.Dict[id]
			dst = binary.AppendUvarint(dst, uint64(len(v)))
			dst = append(dst, v...)
		}
	}
	dst = AppendSampleSection(dst, b.Samples)
	payload := dst[p:]
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[base+4:], crc32.Checksum(payload, walCRC))
	return dst
}

// AppendSampleSection appends the encoding of a batch's sample column,
// shared by WAL records and NZB1 frames: the number of rows that carry a
// vector, then per such row, ascending, its row index, its dimension and
// its values as little-endian float64 bits (uvarints elsewhere). A nil
// entry carries no vector.
func AppendSampleSection(dst []byte, samples [][]float64) []byte {
	n := 0
	for _, x := range samples {
		if x != nil {
			n++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	for r, x := range samples {
		if x == nil {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(r))
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		for _, v := range x {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// DecodeSampleSection decodes an AppendSampleSection encoding for a
// batch of rows rows from the front of p, returning the sample column
// (nil when no row carries a vector) and the bytes consumed. A count
// above rows, a row out of range or not above the previous one, and a
// dimension beyond the remaining bytes are errors, checked before
// anything is allocated.
func DecodeSampleSection(p []byte, rows int) ([][]float64, int, error) {
	d := &walDecoder{p: p}
	count, err := d.uvarint()
	if err != nil {
		return nil, 0, fmt.Errorf("sample count: %w", err)
	}
	if count > uint64(rows) {
		return nil, 0, fmt.Errorf("sample count %d exceeds %d rows", count, rows)
	}
	var samples [][]float64
	if count > 0 {
		samples = make([][]float64, rows)
	}
	last := -1
	for i := uint64(0); i < count; i++ {
		r, err := d.uvarint()
		if err != nil {
			return nil, 0, fmt.Errorf("sample row: %w", err)
		}
		if r >= uint64(rows) || int(r) <= last {
			return nil, 0, fmt.Errorf("sample row %d out of range (%d rows) or not above %d", r, rows, last)
		}
		last = int(r)
		dim, err := d.uvarint()
		if err != nil {
			return nil, 0, fmt.Errorf("sample dimension: %w", err)
		}
		if dim > uint64(len(d.p)/8) {
			return nil, 0, fmt.Errorf("sample dimension %d exceeds payload capacity", dim)
		}
		x := make([]float64, dim)
		for j := range x {
			x[j] = math.Float64frombits(binary.LittleEndian.Uint64(d.p[8*j:]))
		}
		d.p = d.p[8*dim:]
		samples[r] = x
	}
	return samples, len(p) - len(d.p), nil
}

// walDecoder walks a record payload with bounds checking.
type walDecoder struct {
	p []byte
}

func (d *walDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		return 0, errors.New("truncated uvarint")
	}
	d.p = d.p[n:]
	return v, nil
}

func (d *walDecoder) varint() (int64, error) {
	v, n := binary.Varint(d.p)
	if n <= 0 {
		return 0, errors.New("truncated varint")
	}
	d.p = d.p[n:]
	return v, nil
}

func (d *walDecoder) byte() (byte, error) {
	if len(d.p) == 0 {
		return 0, errors.New("truncated byte")
	}
	b := d.p[0]
	d.p = d.p[1:]
	return b, nil
}

func (d *walDecoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.p)) {
		return "", fmt.Errorf("string length %d exceeds remaining %d bytes", n, len(d.p))
	}
	s := string(d.p[:n])
	d.p = d.p[n:]
	return s, nil
}

// decodeWALPayload decodes one CRC-verified record payload of either
// version into its rows and sample column (nil for version 1). Every
// malformation returns an error (never a panic or an over-allocation):
// claimed counts are checked against the bytes actually present.
func decodeWALPayload(p []byte) ([]Entry, [][]float64, error) {
	d := &walDecoder{p: p}
	ver, err := d.byte()
	if err != nil {
		return nil, nil, err
	}
	if ver != 1 && ver != walRecordVersion {
		return nil, nil, fmt.Errorf("unsupported record version %d", ver)
	}
	count, err := d.uvarint()
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
		nanos, err := d.varint()
		if err != nil {
			return nil, nil, fmt.Errorf("entry %d: %w", i, err)
		}
		flags, err := d.byte()
		if err != nil {
			return nil, nil, fmt.Errorf("entry %d: %w", i, err)
		}
		if flags > 1 {
			return nil, nil, fmt.Errorf("entry %d: unknown flags %#x", i, flags)
		}
		sample, err := d.varint()
		if err != nil {
			return nil, nil, fmt.Errorf("entry %d: %w", i, err)
		}
		nattrs, err := d.uvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("entry %d: %w", i, err)
		}
		if nattrs > uint64(len(d.p)/2+1) {
			return nil, nil, fmt.Errorf("entry %d: attr count %d exceeds payload capacity", i, nattrs)
		}
		attrs := make(map[string]string, nattrs)
		for a := uint64(0); a < nattrs; a++ {
			k, err := d.str()
			if err != nil {
				return nil, nil, fmt.Errorf("entry %d attr %d: %w", i, a, err)
			}
			v, err := d.str()
			if err != nil {
				return nil, nil, fmt.Errorf("entry %d attr %d: %w", i, a, err)
			}
			attrs[k] = v
		}
		entries = append(entries, Entry{
			Time:     time.Unix(0, nanos).UTC(),
			Drift:    flags&1 != 0,
			SampleID: sample,
			Attrs:    attrs,
		})
	}
	var samples [][]float64
	if ver == walRecordVersion {
		var n int
		if samples, n, err = DecodeSampleSection(d.p, len(entries)); err != nil {
			return nil, nil, err
		}
		d.p = d.p[n:]
	}
	if len(d.p) != 0 {
		return nil, nil, fmt.Errorf("%d trailing bytes after last entry", len(d.p))
	}
	return entries, samples, nil
}
