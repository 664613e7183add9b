package driftlog

// Deterministic crash-point framework for the WAL. A crashFS stands in
// for the filesystem and kills the "process" at the Nth mutating
// operation, modeling what a real crash leaves behind: everything
// fsynced survives, an unsynced tail survives only partially (a seeded
// random prefix — the torn record), and the op in flight lands
// partially or not at all. The matrix test sweeps EVERY operation index
// in a fixed workload, which subsumes the named kill points (mid-record
// write, pre-sync, post-sync pre-ack, mid-rotation, mid-compaction):
// each of those is some op index, and the sweep hits them all.
//
// Invariant checked after every crash + restart + replay:
//
//	recovered rows  =  a whole-batch prefix of the submitted rows
//	len(recovered) >=  len(acked rows)
//
// i.e. nothing acknowledged is ever lost, and nothing is invented or
// reordered. Over-recovery of the batch in flight is allowed — the
// pipeline is at-least-once end to end.

import (
	"errors"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"sort"
	"strings"
	"sync"
	"testing"
)

var errCrashed = errors.New("crashfs: process killed")

type crashFile struct {
	content []byte
	durable int // bytes guaranteed to survive a crash
}

type crashFS struct {
	mu      sync.Mutex
	files   map[string]*crashFile
	ops     int // mutating operations performed
	killAt  int // crash when ops reaches this 1-based index; 0 = never
	crashed bool
	rng     *mrand.Rand
}

func newCrashFS(seed uint64) *crashFS {
	return &crashFS{
		files: map[string]*crashFile{},
		rng:   mrand.New(mrand.NewPCG(seed, seed^0x9E3779B97F4A7C15)),
	}
}

// step accounts one mutating op. It returns (killNow, err): killNow
// means this very op is the kill point — the caller applies its partial
// effect and then calls crash().
func (fs *crashFS) step() (bool, error) {
	if fs.crashed {
		return false, errCrashed
	}
	fs.ops++
	return fs.killAt > 0 && fs.ops == fs.killAt, nil
}

// crash drops every file's unsynced tail down to a random surviving
// prefix — the page cache's eviction order is not ours to choose.
func (fs *crashFS) crash() {
	fs.crashed = true
	for _, f := range fs.files {
		if len(f.content) > f.durable {
			keep := f.durable + fs.rng.IntN(len(f.content)-f.durable+1)
			f.content = f.content[:keep]
		}
	}
}

// restart clears the crash so the directory can be reopened, as a new
// process would after the old one died.
func (fs *crashFS) restart() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashed = false
	fs.killAt = 0
	// Whatever survived the crash is all there is: it is durable now.
	for _, f := range fs.files {
		f.durable = len(f.content)
	}
}

func (fs *crashFS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return errCrashed
	}
	return nil
}

func (fs *crashFS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, errCrashed
	}
	prefix := dir + "/"
	var names []string
	for path := range fs.files {
		if strings.HasPrefix(path, prefix) && !strings.Contains(path[len(prefix):], "/") {
			names = append(names, path[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

func (fs *crashFS) Create(path string) (walFile, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	kill, err := fs.step()
	if err != nil {
		return nil, err
	}
	f := &crashFile{}
	fs.files[path] = f
	if kill {
		// The file may exist after the crash (empty, unsynced).
		fs.crash()
		return nil, errCrashed
	}
	return &crashHandle{fs: fs, f: f, writable: true}, nil
}

func (fs *crashFS) Open(path string) (walFile, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, errCrashed
	}
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("crashfs: open %s: no such file", path)
	}
	return &crashHandle{fs: fs, f: f}, nil
}

func (fs *crashFS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	kill, err := fs.step()
	if err != nil {
		return err
	}
	if kill {
		// Rename is atomic: the crash lands before it. (The state after
		// a completed rename is exactly the next op's kill point.)
		fs.crash()
		return errCrashed
	}
	f, ok := fs.files[oldpath]
	if !ok {
		return fmt.Errorf("crashfs: rename %s: no such file", oldpath)
	}
	delete(fs.files, oldpath)
	fs.files[newpath] = f
	// Model rename as immediately durable (journaled metadata); the
	// separate SyncDir op stays in the matrix for op-count coverage.
	f.durable = len(f.content)
	return nil
}

func (fs *crashFS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	kill, err := fs.step()
	if err != nil {
		return err
	}
	if kill {
		fs.crash()
		return errCrashed
	}
	if _, ok := fs.files[path]; !ok {
		return fmt.Errorf("crashfs: remove %s: no such file", path)
	}
	delete(fs.files, path)
	return nil
}

func (fs *crashFS) Truncate(path string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	kill, err := fs.step()
	if err != nil {
		return err
	}
	if kill {
		fs.crash()
		return errCrashed
	}
	f, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("crashfs: truncate %s: no such file", path)
	}
	if int(size) < len(f.content) {
		f.content = f.content[:size]
	}
	if f.durable > len(f.content) {
		f.durable = len(f.content)
	}
	return nil
}

func (fs *crashFS) SyncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	kill, err := fs.step()
	if err != nil {
		return err
	}
	if kill {
		fs.crash()
		return errCrashed
	}
	return nil
}

type crashHandle struct {
	fs       *crashFS
	f        *crashFile
	pos      int
	writable bool
}

func (h *crashHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, errCrashed
	}
	if h.pos >= len(h.f.content) {
		return 0, io.EOF
	}
	n := copy(p, h.f.content[h.pos:])
	h.pos += n
	return n, nil
}

func (h *crashHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if !h.writable {
		return 0, errors.New("crashfs: write on read-only handle")
	}
	kill, err := h.fs.step()
	if err != nil {
		return 0, err
	}
	if kill {
		// The op in flight lands partially: a random prefix reaches the
		// page cache before the process dies.
		n := h.fs.rng.IntN(len(p) + 1)
		h.f.content = append(h.f.content, p[:n]...)
		h.fs.crash()
		return n, errCrashed
	}
	h.f.content = append(h.f.content, p...)
	return len(p), nil
}

func (h *crashHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if !h.writable {
		return nil
	}
	kill, err := h.fs.step()
	if err != nil {
		return err
	}
	if kill {
		// Pre-sync kill: nothing written since the last sync is promoted.
		h.fs.crash()
		return errCrashed
	}
	h.f.durable = len(h.f.content)
	return nil
}

func (h *crashHandle) Close() error { return nil }

// crashWorkload drives a fixed WAL write sequence against fs and
// reports the batches submitted and the batches acked (Append returned
// nil) before the crash, if any. Segment size is tuned so the workload
// rotates multiple times, and an explicit mid-workload compaction puts
// snapshot write/rename/delete ops in the sweep.
func crashWorkload(fs *crashFS) (submitted, acked [][]Entry) {
	s := NewStore()
	w, err := OpenWAL("wal", s, WALOptions{SegmentBytes: 256, fs: fs})
	if err != nil {
		return nil, nil
	}
	const batches = 8
	for i := 0; i < batches; i++ {
		b := walBatch(i*3, 3)
		submitted = append(submitted, b)
		if err := w.AppendColumns(ColumnsFromEntries(b)); err != nil {
			return submitted, acked
		}
		acked = append(acked, b)
		if i == 4 {
			// Mid-workload compaction (synchronous — keeps the op
			// sequence deterministic for the sweep).
			if err := w.Compact(); err != nil {
				return submitted, acked
			}
		}
	}
	_ = w.Close()
	return submitted, acked
}

func flattenBatches(bs [][]Entry) []Entry {
	var out []Entry
	for _, b := range bs {
		out = append(out, b...)
	}
	return out
}

// verifyCrashRecovery restarts fs, replays the WAL, and checks the
// crash-recovery invariant against the workload's submission record.
func verifyCrashRecovery(t *testing.T, fs *crashFS, submitted, acked [][]Entry, label string) {
	t.Helper()
	fs.restart()
	s := NewStore()
	w, err := OpenWAL("wal", s, WALOptions{fs: fs})
	if err != nil {
		t.Fatalf("%s: recovery refused to open: %v", label, err)
	}
	defer w.Close()

	flat := flattenBatches(submitted)
	ackedRows := len(flattenBatches(acked))
	n := s.Len()
	if n < ackedRows {
		t.Fatalf("%s: LOST ACKED DATA: acked %d rows, recovered %d (recovery: %+v)",
			label, ackedRows, n, w.Recovery())
	}
	if n > len(flat) {
		t.Fatalf("%s: recovered %d rows but only %d were ever submitted", label, n, len(flat))
	}
	// Whole-batch granularity: a record is a batch, and replay applies
	// only complete records.
	sum := 0
	onBoundary := n == 0
	for _, b := range submitted {
		sum += len(b)
		if n == sum {
			onBoundary = true
			break
		}
	}
	if !onBoundary {
		t.Fatalf("%s: recovered %d rows — not a batch boundary", label, n)
	}
	for i := 0; i < n; i++ {
		if got, want := s.Entry(i).Attrs["seq"], flat[i].Attrs["seq"]; got != want {
			t.Fatalf("%s: row %d: got seq %s want %s", label, i, got, want)
		}
	}
	// The recovered store's bitset index must agree with a scan (an
	// empty recovery has no attributes to probe).
	if n > 0 {
		v := s.All()
		idx, err1 := v.Count([]Cond{{AttrWeather, "snow"}}, nil)
		scan, err2 := refCount(v, []Cond{{AttrWeather, "snow"}}, nil)
		if err1 != nil || err2 != nil || idx != scan {
			t.Fatalf("%s: recovered index disagrees with scan: %+v/%v vs %+v/%v", label, idx, err1, scan, err2)
		}
	}
}

// TestWALCrashMatrix kills the process at every mutating-filesystem
// operation the workload performs, one run per kill point, and proves
// recovery never loses an acked row.
func TestWALCrashMatrix(t *testing.T) {
	// Dry run: learn the op count and pin the workload's shape.
	dry := newCrashFS(1)
	submitted, acked := crashWorkload(dry)
	if len(acked) != len(submitted) || len(acked) != 8 {
		t.Fatalf("dry run must ack everything: %d/%d", len(acked), len(submitted))
	}
	total := dry.ops
	if total < 30 {
		t.Fatalf("workload too small to be interesting: %d ops", total)
	}
	if dry.killAt != 0 {
		t.Fatalf("dry run had a kill point")
	}

	for k := 1; k <= total; k++ {
		fs := newCrashFS(uint64(1000 + k))
		fs.killAt = k
		sub, ack := crashWorkload(fs)
		if !fs.crashed {
			t.Fatalf("killAt=%d: workload finished without crashing (ops=%d)", k, fs.ops)
		}
		verifyCrashRecovery(t, fs, sub, ack, fmt.Sprintf("killAt=%d", k))
	}
}

// TestWALCrashMatrixRandomized re-runs the sweep with different torn-
// tail randomness: the same kill point can leave different surviving
// prefixes of the unsynced tail, and recovery must hold for all of them.
func TestWALCrashMatrixRandomized(t *testing.T) {
	dry := newCrashFS(1)
	crashWorkload(dry)
	total := dry.ops
	rng := mrand.New(mrand.NewPCG(42, 43))
	const runs = 120
	for r := 0; r < runs; r++ {
		k := 1 + rng.IntN(total)
		seed := rng.Uint64()
		fs := newCrashFS(seed)
		fs.killAt = k
		sub, ack := crashWorkload(fs)
		if !fs.crashed {
			t.Fatalf("killAt=%d seed=%d: no crash", k, seed)
		}
		verifyCrashRecovery(t, fs, sub, ack, fmt.Sprintf("killAt=%d seed=%d", k, seed))
	}
}

// TestWALCrashDoubleFault crashes once, recovers, then crashes the
// recovered WAL too: recovery-of-a-recovery must still hold the
// invariant (the second process also wrote new state before dying).
func TestWALCrashDoubleFault(t *testing.T) {
	rng := mrand.New(mrand.NewPCG(7, 11))
	for r := 0; r < 20; r++ {
		fs := newCrashFS(rng.Uint64())
		fs.killAt = 10 + rng.IntN(25)
		sub1, ack1 := crashWorkload(fs)
		if !fs.crashed {
			t.Fatalf("run %d: first crash missed", r)
		}
		fs.restart()

		// Second incarnation: replay, then keep writing — and die again.
		s := NewStore()
		w, err := OpenWAL("wal", s, WALOptions{SegmentBytes: 256, fs: fs})
		if err != nil {
			t.Fatalf("run %d: recovery open: %v", r, err)
		}
		recovered := s.Len()
		fs.mu.Lock()
		fs.killAt = fs.ops + 3 + rng.IntN(8)
		fs.mu.Unlock()
		var ack2 [][]Entry
		sub2 := append([][]Entry(nil), sub1...)
		// The second process appends fresh batches numbered after the
		// first workload's rows.
		for i := 0; i < 6; i++ {
			b := walBatch(1000+i*3, 3)
			sub2 = append(sub2, b)
			if err := w.AppendColumns(ColumnsFromEntries(b)); err != nil {
				break
			}
			ack2 = append(ack2, b)
		}
		_ = w.Close()

		fs.restart()
		final := NewStore()
		w2, err := OpenWAL("wal", final, WALOptions{fs: fs})
		if err != nil {
			t.Fatalf("run %d: second recovery open: %v", r, err)
		}
		minRows := recovered + len(flattenBatches(ack2))
		if final.Len() < minRows {
			t.Fatalf("run %d: lost rows across double fault: recovered %d, want >= %d (first ack %d)",
				r, final.Len(), minRows, len(flattenBatches(ack1)))
		}
		w2.Close()
	}
}
