// Write-ahead log for the drift log: the durability layer the paper
// gets for free from Aurora (PAPER.md §2). Every ingest batch is
// appended to the active segment as one length-prefixed, CRC32C-checked
// record whose payload is the batch's NZB1 frame (frame.go) — the same
// bytes a binary ingest request carries — and fsynced before the append
// returns, so an acknowledged entry survives process death by
// construction. Segments rotate at a size threshold. Compaction is
// retention: it deletes each sealed file whose newest row is before the
// cutoff the drift log was last compacted to (Store.Compact), so the rule
// that bounds the store's memory bounds the directory too. Replay on open
// decodes each frame straight into the ordinary append path, which
// rebuilds the per-(attribute, value) bitset index too — a replayed store
// is query-identical to the live store it mirrors.
//
// Replay still reads the formats earlier versions wrote: row-layout
// records (versions 1 and 2, decodeWALPayload) inside segments, and a
// snapshot file — frame records in the segment layout, or a gob file
// (readFrom) — which, once loaded, is one more sealed file that
// retention expires as a whole.
//
// Crash-recovery contract:
//
//   - an AppendColumns that returned nil is durable: its record is fully
//     fsynced before the call returns, and replay restores it for as
//     long as retention keeps its file;
//   - a batch whose frame exceeds the record bound is refused with
//     ErrFrameTooLarge before anything is written, and the WAL stays
//     healthy;
//   - a torn final record (the write the crash interrupted) is detected
//     by length/CRC, truncated, and reported via RecoveryInfo — it
//     never blocks startup;
//   - corruption anywhere else (a sealed segment, a snapshot, a bad
//     header) refuses to open with a typed *CorruptError, never a
//     panic;
//   - compaction only unlinks files every row of which is before the
//     cutoff, so a crash during it loses no row the cutoff keeps; an
//     unlink the crash undoes leaves an expired file, which replay
//     restores and the next pass removes.
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
	"slices"
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
	// ErrWALReadOnly marks appends and compaction on a replay-only WAL.
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
	// CompactSegments, when positive, starts a background compaction
	// pass whenever a rotation leaves at least this many sealed files.
	// Zero disables automatic compaction (Compact can still be called
	// explicitly).
	CompactSegments int
	// ReadOnly replays without mutating the directory: no tail
	// truncation, no cleanup, no active segment; AppendColumns and
	// Compact fail with ErrWALReadOnly. For inspectors and replay
	// benchmarks.
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
	// SnapshotRows is the row count loaded from a legacy snapshot (0
	// when none existed).
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
	// SealedSegments counts the files besides the active segment that
	// replay would restore: rotated segments, and a legacy snapshot,
	// that compaction has not expired.
	SealedSegments int
	// Appends, AppendedBytes and Rotations count work done since open;
	// Compactions counts the compaction passes that deleted a file.
	Appends       int64
	AppendedBytes int64
	Rotations     int64
	Compactions   int64
}

// WAL is the drift log's write-ahead log. All methods are safe for
// concurrent use; appends serialize on one mutex (the fsync dominates).
type WAL struct {
	dir   string
	opts  WALOptions
	fs    walFS
	rec   RecoveryInfo
	store *Store // the store OpenWAL replayed into: its cutoff is the retention

	mu        sync.Mutex
	err       error // sticky failure; nil while healthy
	closed    bool
	cur       walFile
	curIdx    uint64
	curSize   int64
	curNewest int64        // the active segment's newest row (unix nanos); math.MinInt64 while empty
	sealed    []sealedFile // ascending index, a legacy snapshot first
	buf       []byte       // frame scratch
	queued    bool         // a background pass is started but has not yet read sealed

	compactMu     sync.Mutex // serializes compaction passes
	appends       atomic.Int64
	appendedBytes atomic.Int64
	rotations     atomic.Int64
	compactions   atomic.Int64
	bg            sync.WaitGroup
	compactErr    atomic.Value // last background compaction error (error)
}

// sealedFile is a file appends no longer reach — a rotated segment or a
// legacy snapshot — with its newest row's time (unix nanos;
// math.MinInt64 when it holds none), which is all expiry needs to know.
type sealedFile struct {
	name   string
	newest int64
}

// newestTime folds times into newest, the latest seen so far.
func newestTime(newest int64, times []int64) int64 {
	for _, t := range times {
		newest = max(newest, t)
	}
	return newest
}

// segName / snapName render the on-disk naming scheme. Segment indexes
// start at 1 and only ever grow; a legacy snapshot's index is the highest
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
// contents — a legacy snapshot first, then every uncovered segment in
// index order — into s, which is normally a fresh store and whose
// Compact cutoff the WAL's compaction applies from then on. On success
// the WAL is ready for appends (unless opts.ReadOnly). A torn final
// record is truncated and reported via Recovery(); any other damage
// returns a *CorruptError and s must be discarded (it may hold a partial
// prefix).
func OpenWAL(dir string, s *Store, opts WALOptions) (*WAL, error) {
	if s == nil {
		return nil, errors.New("driftlog: wal: nil store")
	}
	opts = opts.withDefaults()
	w := &WAL{dir: dir, opts: opts, fs: opts.fs, store: s}
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
		// Leftover temp files are folds an earlier version abandoned:
		// discard.
		if strings.HasSuffix(name, ".tmp") && !opts.ReadOnly {
			_ = w.fs.Remove(filepath.Join(dir, name))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	// Of several snapshots an earlier version's died fold left, the
	// newest covers the rest. It was published atomically, so damage in
	// it is corruption, never a torn tail.
	snap := int64(-1)
	if len(snaps) > 0 {
		best := snaps[len(snaps)-1]
		if _, w.rec.SnapshotRows, err = w.replay(s, snapName(best), false, true); err != nil {
			return nil, err
		}
		snap = int64(best)
		if !opts.ReadOnly {
			for _, idx := range snaps[:len(snaps)-1] {
				_ = w.fs.Remove(filepath.Join(dir, snapName(idx)))
			}
		}
	}

	maxIdx := uint64(max(snap, 0))
	for i, idx := range segs {
		if int64(idx) <= snap {
			// Covered by the snapshot: a fold died between the snapshot
			// rename and the segment deletes. Finish the job.
			if !opts.ReadOnly {
				_ = w.fs.Remove(filepath.Join(dir, segName(idx)))
			}
			continue
		}
		w.rec.Segments++
		records, rows, err := w.replay(s, segName(idx), i == len(segs)-1, false)
		if err != nil {
			return nil, err
		}
		w.rec.Records += records
		w.rec.Rows += rows
		maxIdx = max(maxIdx, idx)
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
		ActiveSegment:  w.curIdx,
		ActiveBytes:    w.curSize,
		SealedSegments: len(w.sealed),
	}
	w.mu.Unlock()
	st.Appends = w.appends.Load()
	st.AppendedBytes = w.appendedBytes.Load()
	st.Rotations = w.rotations.Load()
	st.Compactions = w.compactions.Load()
	return st
}

// replay appends the batches of one file to s in order, seals the file
// with its newest row's time unless nothing of it survived (scanRecords'
// keep), and returns its batch and row counts; tail and snapshot are
// scanRecords'.
func (w *WAL) replay(s *Store, name string, tail, snapshot bool) (batches int, rows int64, err error) {
	newest := int64(math.MinInt64)
	keep, err := w.scanRecords(filepath.Join(w.dir, name), tail, snapshot, func(b *ColumnarBatch) {
		s.appendColumns(b)
		batches++
		rows += int64(b.Rows())
		newest = newestTime(newest, b.Times)
	})
	if keep {
		w.sealed = append(w.sealed, sealedFile{name, newest})
	}
	return batches, rows, err
}

// decodeRecord decodes one CRC-checked record payload. Its first byte
// tells its format: an NZB1 frame, or a legacy row record (version 1 or
// 2), which decodeWALPayload reads.
func decodeRecord(payload []byte) (*ColumnarBatch, error) {
	if bytes.HasPrefix(payload, []byte(frameMagic)) {
		return DecodeFrame(payload, 0)
	}
	entries, samples, err := decodeWALPayload(payload)
	if err != nil {
		return nil, err
	}
	return rowBatch(entries, samples), nil
}

// scanRecords hands the batches of one segment-layout file (segment or
// snapshot) to fn in order, each decoded after the record's length and
// CRC checks. tail marks the final (most recently written) segment, whose
// last record is allowed to be torn: the scan stops there, truncates the
// file (unless read-only), and records the fact. Damage anywhere else — or
// a file whose header is present but wrong — is a *CorruptError.
// keep=false means the file was removed entirely (a tail file that never
// got a complete header). A snapshot that opens with the gob header is a
// legacy gob snapshot, which readFrom reads instead.
func (w *WAL) scanRecords(path string, tail, snapshot bool, fn func(*ColumnarBatch)) (keep bool, err error) {
	f, err := w.fs.Open(path)
	if err != nil {
		return false, &CorruptError{Path: path, Reason: fmt.Sprintf("open: %v", err)}
	}
	br := bufio.NewReaderSize(f, 64<<10)
	if head, _ := br.Peek(len(persistHeader)); snapshot && string(head) == persistHeader {
		defer f.Close()
		if _, err := readFrom(br, func(entries []Entry, samples [][]float64) error {
			fn(rowBatch(entries, samples))
			return nil
		}); err != nil {
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
	var payload bytes.Buffer
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
		payload.Reset()
		if n, err := io.CopyN(&payload, br, int64(length)); err != nil || n != int64(length) {
			return torn(off, "short record payload")
		}
		if got := crc32.Checksum(payload.Bytes(), castagnoli); got != want {
			return torn(off, fmt.Sprintf("crc mismatch: got %08x want %08x", got, want))
		}
		b, err := decodeRecord(payload.Bytes())
		if err != nil {
			return torn(off, fmt.Sprintf("record decode: %v", err))
		}
		fn(b)
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
	w.curNewest = math.MinInt64
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
	w.curNewest = newestTime(w.curNewest, b.Times)
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
	if err := w.errLocked(); err != nil {
		return err
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
	w.sealed = append(w.sealed, sealedFile{segName(w.curIdx), w.curNewest})
	w.curIdx++
	w.rotations.Add(1)
	return w.startSegmentLocked()
}

// maybeCompactLocked starts a background compaction pass when the sealed
// files reached the threshold, unless a started pass has yet to read the
// sealed list (it will see this file too). Passes serialize on compactMu,
// so at most one runs and one waits, and no trigger is lost.
func (w *WAL) maybeCompactLocked() {
	if w.opts.CompactSegments <= 0 || len(w.sealed) < w.opts.CompactSegments || w.queued {
		return
	}
	w.queued = true
	w.bg.Add(1)
	go func() {
		defer w.bg.Done()
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

// Compact applies the drift log's retention to the directory. It
// deletes, in ascending index order, every sealed file — a rotated
// segment or a legacy snapshot — whose newest row is before the largest
// cutoff Store.Compact has been given on the store OpenWAL replayed into:
// rows that store has already dropped. The active segment stays, and so
// does a file that straddles the cutoff. The deletes need no directory
// fsync: an unlink a crash undoes leaves an expired file, which replay
// restores and the next pass removes. Appends and rotations proceed
// concurrently. A read-only, severed or poisoned WAL refuses with its
// sticky error and leaves the directory untouched.
func (w *WAL) Compact() error {
	w.compactMu.Lock()
	defer w.compactMu.Unlock()
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.queued = false
	cutoff := w.store.cutoff.Load()
	var expired []sealedFile
	for _, f := range w.sealed {
		if f.newest < cutoff {
			expired = append(expired, f)
		}
	}
	w.mu.Unlock()

	removed := 0
	var err error
	for _, f := range expired {
		if w.severed() {
			err = ErrWALSevered
			break
		}
		if err = w.fs.Remove(filepath.Join(w.dir, f.name)); err != nil {
			err = fmt.Errorf("driftlog: wal compact: %w", err)
			break
		}
		removed++
	}
	if removed > 0 {
		// Only rotations ran meanwhile, and they append: the removed
		// files are still in w.sealed, in the same order.
		gone := expired[:removed]
		w.mu.Lock()
		w.sealed = slices.DeleteFunc(w.sealed, func(f sealedFile) bool {
			if len(gone) > 0 && f == gone[0] {
				gone = gone[1:]
				return true
			}
			return false
		})
		w.mu.Unlock()
		w.compactions.Add(1)
	}
	return err
}

// severed reports whether Sever has fired (checked before each of
// compaction's unlinks, so a simulated kill stops mutating the directory).
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
// batch carries. Records decode independently, so replay never needs
// decoder state.
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
