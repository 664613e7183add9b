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
// That is the only format replay reads. A directory an earlier version
// left behind — a snapshot file, or a segment of row-layout records — is
// refused with a *CorruptError naming the file, never half loaded.
//
// Crash-recovery contract:
//
//   - an AppendColumns that returned nil is durable: its record is fully
//     fsynced before the call returns, and replay restores it for as
//     long as retention keeps its file;
//   - a batch whose frame exceeds the record bound is refused with
//     ErrFrameTooLarge before anything is written, and the WAL stays
//     healthy;
//   - a torn final record (the write the crash interrupted) fails the
//     length or CRC check; in the tail segment it is truncated and
//     reported via RecoveryInfo — it never blocks startup;
//   - anything else (damage in a sealed segment, a checked record that
//     is not a frame, a bad header, a snapshot file) refuses to open
//     with a typed *CorruptError, never a panic, and the directory is
//     left as it was;
//   - compaction only unlinks files every row of which is before the
//     cutoff, so a crash during it loses no row the cutoff keeps; an
//     unlink the crash undoes leaves an expired file, which replay
//     restores and the next pass removes.
package driftlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// walMagic opens every segment: 5 magic bytes plus a 3-digit format
// version.
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
)

// CorruptError is the typed replay failure: anything but a torn record
// at the end of the tail segment (damage in a sealed segment, a record
// that is not a frame, a foreign or damaged header, a snapshot file an
// earlier version wrote). Replay never panics: it either recovers a
// prefix or returns one of these.
type CorruptError struct {
	// Path is the refused file.
	Path string
	// Offset is the byte offset of the first bad record (0 for header
	// damage and snapshot files).
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
	// Segments is the number of segment files replay kept (a segment
	// that holds no record is removed instead); Records and Rows count
	// what they contained.
	Segments int
	Records  int
	Rows     int64
	// TornTail reports that a torn final record was found; TornFile and
	// TornBytes identify the file and how many trailing bytes were
	// dropped (truncated away).
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
	// SealedSegments counts the rotated segments compaction has not
	// expired: the files besides the active one that replay would
	// restore.
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
	sealed    []sealedFile // ascending index
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

// sealedFile is a segment appends no longer reach, with its newest row's
// time (unix nanos; math.MinInt64 when it holds none), which is all
// expiry needs to know.
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

// segName renders a segment's on-disk name. Segment indexes start at 1
// and only ever grow.
func segName(idx uint64) string { return fmt.Sprintf("wal-%016x.seg", idx) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	hex := name[len("wal-") : len(name)-len(".seg")]
	if len(hex) != 16 {
		return 0, false
	}
	var idx uint64
	if _, err := fmt.Sscanf(hex, "%016x", &idx); err != nil {
		return 0, false
	}
	return idx, true
}

// OpenWAL opens (creating if needed) the WAL in dir and replays every
// segment in index order into s, which is normally a fresh store and
// whose Compact cutoff the WAL's compaction applies from then on. On
// success the WAL is ready for appends. A torn final record is truncated
// and reported via Recovery(), and a segment that holds no record is
// removed. Anything else returns a *CorruptError before the directory is
// touched, and s must be discarded (it may hold a partial prefix); a
// snapshot file an earlier version wrote is refused before any replay.
func OpenWAL(dir string, s *Store, opts WALOptions) (*WAL, error) {
	if s == nil {
		return nil, errors.New("driftlog: wal: nil store")
	}
	opts = opts.withDefaults()
	w := &WAL{dir: dir, opts: opts, fs: opts.fs, store: s}
	if err := w.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("driftlog: wal: mkdir %s: %w", dir, err)
	}
	names, err := w.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("driftlog: wal: list %s: %w", dir, err)
	}
	var segs []uint64
	for _, name := range names {
		if idx, ok := parseSegName(name); ok {
			segs = append(segs, idx)
		} else if snap, _ := filepath.Match("snapshot-*.driftlog", name); snap {
			return nil, &CorruptError{Path: filepath.Join(dir, name),
				Reason: "snapshot file of an earlier version: replay reads frame segments only"}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	var empty []string // segments that hold no record, removed once all replayed
	var buf bytes.Buffer
	for i, idx := range segs {
		path := filepath.Join(dir, segName(idx))
		keep, err := w.replay(s, path, i == len(segs)-1, &buf)
		if err != nil {
			return nil, err
		}
		if !keep {
			empty = append(empty, path)
		}
	}
	for _, path := range empty {
		if err := w.fs.Remove(path); err != nil {
			return nil, fmt.Errorf("driftlog: wal: drop empty segment %s: %w", path, err)
		}
	}

	w.curIdx = 1
	if len(segs) > 0 {
		w.curIdx = segs[len(segs)-1] + 1
	}
	if err := w.startSegmentLocked(); err != nil {
		return nil, err
	}
	w.maybeCompactLocked()
	return w, nil
}

// Recovery returns what replay found when the WAL was opened.
func (w *WAL) Recovery() RecoveryInfo { return w.rec }

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

// replay appends the batches of one segment to s in order; tail marks
// the last segment, whose torn tail it records and truncates away. It
// seals the segment with its newest row's time and reports keep, unless
// no record of it survived: the caller then removes the file. buf is
// scanRecords'.
func (w *WAL) replay(s *Store, path string, tail bool, buf *bytes.Buffer) (keep bool, err error) {
	newest := int64(math.MinInt64)
	valid, size, err := w.scanRecords(path, tail, buf, func(b *ColumnarBatch) {
		s.appendColumns(b)
		w.rec.Records++
		w.rec.Rows += int64(b.Rows())
		newest = newestTime(newest, b.Times)
	})
	if err != nil {
		return false, err
	}
	if valid < size {
		w.rec.TornTail, w.rec.TornFile, w.rec.TornBytes = true, path, size-valid
	}
	if valid <= int64(len(walMagic)) {
		return false, nil
	}
	if valid < size {
		if err := w.fs.Truncate(path, valid); err != nil {
			return false, fmt.Errorf("driftlog: wal: truncate torn tail of %s: %w", path, err)
		}
	}
	w.rec.Segments++
	w.sealed = append(w.sealed, sealedFile{filepath.Base(path), newest})
	return true, nil
}

// scanRecords hands the batches of one segment to fn in order, each
// decoded after the record's length and CRC checks, and returns how many
// leading bytes of the file it accepted (valid) of its size. In the tail
// segment, a record that fails the length or CRC check — the write a
// crash interrupted — ends the scan: valid stops before it. Anything
// else — such a record in a sealed segment, a checked record that is not
// a frame, a bad header — is a *CorruptError. It changes nothing on disk.
// The file is read whole into buf, which one open reuses for every
// segment.
func (w *WAL) scanRecords(path string, tail bool, buf *bytes.Buffer, fn func(*ColumnarBatch)) (valid, size int64, err error) {
	f, err := w.fs.Open(path)
	if err != nil {
		return 0, 0, &CorruptError{Path: path, Reason: fmt.Sprintf("open: %v", err)}
	}
	buf.Reset()
	_, err = buf.ReadFrom(f)
	f.Close()
	if err != nil {
		return 0, 0, fmt.Errorf("driftlog: wal: read %s: %w", path, err)
	}
	data := buf.Bytes()
	size = int64(len(data))
	torn := func(off int, reason string) (int64, int64, error) {
		if !tail {
			return 0, 0, &CorruptError{Path: path, Offset: int64(off), Reason: reason}
		}
		return int64(off), size, nil
	}
	if len(data) < len(walMagic) {
		// Shorter than a header: only a torn creation can produce this.
		return torn(0, "short header")
	}
	if hdr := data[:len(walMagic)]; string(hdr) != walMagic {
		return 0, 0, &CorruptError{Path: path, Reason: fmt.Sprintf("bad header %q", hdr)}
	}
	for off := len(walMagic); off < len(data); {
		rec := data[off:]
		if len(rec) < 8 {
			return torn(off, "short record header")
		}
		length := binary.LittleEndian.Uint32(rec[0:4])
		want := binary.LittleEndian.Uint32(rec[4:8])
		if length == 0 || length > maxWALRecord {
			return torn(off, fmt.Sprintf("implausible record length %d", length))
		}
		if uint64(len(rec)-8) < uint64(length) {
			return torn(off, "short record payload")
		}
		payload := rec[8 : 8+length]
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return torn(off, fmt.Sprintf("crc mismatch: got %08x want %08x", got, want))
		}
		b, err := DecodeFrame(payload, 0)
		if err != nil {
			return 0, 0, &CorruptError{Path: path, Offset: int64(off), Reason: fmt.Sprintf("record is not a frame: %v", err)}
		}
		fn(b)
		off += 8 + int(length)
	}
	return size, size, nil
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
// (poisoned or severed) or ErrWALClosed — and nil while the WAL
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

// Compact applies the drift log's retention to the directory. It
// deletes, in ascending index order, every sealed segment whose newest
// row is before the largest cutoff Store.Compact has been given on the
// store OpenWAL replayed into: rows that store has already dropped. The
// active segment stays, and so does a file that straddles the cutoff. The deletes need no directory
// fsync: an unlink a crash undoes leaves an expired file, which replay
// restores and the next pass removes. Appends and rotations proceed
// concurrently. A severed or poisoned WAL refuses with its
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
// ErrWALClosed. A background compaction pass that failed is reported
// here, since no caller was waiting on it.
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
	if err, ok := w.compactErr.Load().(error); ok {
		return fmt.Errorf("driftlog: wal background compaction: %w", err)
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
