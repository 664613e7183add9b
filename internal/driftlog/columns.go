// Columnar batch form of drift-log entries: the shape the binary wire
// protocol (internal/wire) carries and the only form the store appends.
// A ColumnarBatch is the batch-local mirror of the store's own layout —
// dictionary-encoded attribute columns over parallel row arrays — so
// appending one is a dictionary remap plus slice appends, not
// len(entries) map walks. Row form ([]Entry) is adapted at the edge by
// ColumnsFromEntries.
package driftlog

import (
	"fmt"
	"sort"
	"time"
)

// ColumnData is one dictionary-encoded attribute column of a batch.
// Dict[0] is reserved as "" meaning "attribute missing on this row",
// exactly like the store's column encoding; IDs[i] == 0 marks a row
// without the attribute.
type ColumnData struct {
	Name string
	Dict []string
	IDs  []uint32
}

// ColumnarBatch is a batch of drift-log rows in columnar form. All row
// slices are parallel: Times[i], Drift[i] and SampleIDs[i] (plus
// Cols[*].IDs[i]) describe row i. Times are unix nanoseconds.
type ColumnarBatch struct {
	Times     []int64
	Drift     []bool
	SampleIDs []int64
	Cols      []ColumnData
}

// Rows returns the number of rows in the batch.
func (b *ColumnarBatch) Rows() int { return len(b.Times) }

// Validate checks the batch's structural invariants: parallel slice
// lengths, the reserved Dict[0] == "" slot, in-range dictionary IDs and
// unique column names. Append paths require a valid batch; feeding an
// invalid one anywhere is an error, never a panic.
func (b *ColumnarBatch) Validate() error {
	rows := len(b.Times)
	if len(b.Drift) != rows {
		return fmt.Errorf("driftlog: columnar batch: %d times but %d drift flags", rows, len(b.Drift))
	}
	if len(b.SampleIDs) != rows {
		return fmt.Errorf("driftlog: columnar batch: %d times but %d sample ids", rows, len(b.SampleIDs))
	}
	seen := make(map[string]bool, len(b.Cols))
	for ci := range b.Cols {
		col := &b.Cols[ci]
		if col.Name == "" {
			return fmt.Errorf("driftlog: columnar batch: column %d has empty name", ci)
		}
		if seen[col.Name] {
			return fmt.Errorf("driftlog: columnar batch: duplicate column %q", col.Name)
		}
		seen[col.Name] = true
		if len(col.Dict) == 0 || col.Dict[0] != "" {
			return fmt.Errorf("driftlog: columnar batch: column %q must reserve dict[0] as empty", col.Name)
		}
		if len(col.IDs) != rows {
			return fmt.Errorf("driftlog: columnar batch: column %q has %d ids for %d rows", col.Name, len(col.IDs), rows)
		}
		for r, id := range col.IDs {
			if int(id) >= len(col.Dict) {
				return fmt.Errorf("driftlog: columnar batch: column %q row %d: dict id %d out of range (dict size %d)",
					col.Name, r, id, len(col.Dict))
			}
		}
	}
	return nil
}

// RowAttrs materializes row i's attribute map (absent attributes
// omitted).
func (b *ColumnarBatch) RowAttrs(i int) map[string]string {
	attrs := map[string]string{}
	for ci := range b.Cols {
		if id := b.Cols[ci].IDs[i]; id != 0 {
			attrs[b.Cols[ci].Name] = b.Cols[ci].Dict[id]
		}
	}
	return attrs
}

// Entry reconstructs row i as an Entry.
func (b *ColumnarBatch) Entry(i int) Entry {
	return Entry{
		Time:     time.Unix(0, b.Times[i]).UTC(),
		Drift:    b.Drift[i],
		SampleID: b.SampleIDs[i],
		Attrs:    b.RowAttrs(i),
	}
}

// Entries reconstructs the whole batch in row form.
func (b *ColumnarBatch) Entries() []Entry {
	out := make([]Entry, b.Rows())
	for i := range out {
		out[i] = b.Entry(i)
	}
	return out
}

// ColumnsFromEntries converts a row-form batch to columnar form.
// Columns come out in sorted name order with per-batch dictionaries in
// first-seen order, so the conversion is deterministic for a given
// entry slice.
func ColumnsFromEntries(entries []Entry) *ColumnarBatch {
	b := &ColumnarBatch{
		Times:     make([]int64, len(entries)),
		Drift:     make([]bool, len(entries)),
		SampleIDs: make([]int64, len(entries)),
	}
	colIdx := map[string]int{}
	for i := range entries {
		e := &entries[i]
		b.Times[i] = e.Time.UnixNano()
		b.Drift[i] = e.Drift
		b.SampleIDs[i] = e.SampleID
		for name := range e.Attrs {
			if _, ok := colIdx[name]; !ok {
				colIdx[name] = -1 // placeholder; indexes assigned after sorting
			}
		}
	}
	names := make([]string, 0, len(colIdx))
	for name := range colIdx {
		names = append(names, name)
	}
	sort.Strings(names)
	b.Cols = make([]ColumnData, len(names))
	for ci, name := range names {
		colIdx[name] = ci
		b.Cols[ci] = ColumnData{Name: name, Dict: []string{""}, IDs: make([]uint32, len(entries))}
	}
	// Per-column value interning (first-seen order within the batch).
	interns := make([]map[string]uint32, len(names))
	for ci := range interns {
		interns[ci] = map[string]uint32{}
	}
	for i := range entries {
		for name, val := range entries[i].Attrs {
			ci := colIdx[name]
			col := &b.Cols[ci]
			id, ok := interns[ci][val]
			if !ok {
				id = uint32(len(col.Dict))
				col.Dict = append(col.Dict, val)
				interns[ci][val] = id
			}
			col.IDs[i] = id
		}
	}
	return b
}

// AppendBatch ingests row-form entries through the columnar path,
// preserving slice order in the store's canonical (sequence) order.
func (s *Store) AppendBatch(entries []Entry) {
	s.appendColumns(ColumnsFromEntries(entries))
}

// AppendColumns validates and ingests a columnar batch, preserving batch
// row order in the store's canonical (sequence) order.
func (s *Store) AppendColumns(b *ColumnarBatch) error {
	if err := b.Validate(); err != nil {
		return err
	}
	s.appendColumns(b)
	return nil
}

// appendColumns is the one function that writes shard rows. Per shard,
// appends are slice extensions plus a lazy dictionary remap (batch dict
// ID → shard dict ID, interned only for values that actually land in the
// shard); the per-(attribute, value) bitmaps and the distinct-value
// tracking are maintained here, and the batch is handed to the sketch feed
// once, before its rows land. b must satisfy Validate's
// structural invariants (ColumnsFromEntries output does by construction).
func (s *Store) appendColumns(b *ColumnarBatch) {
	rows := b.Rows()
	if rows == 0 {
		return
	}
	// Register attribute names in row-discovery order — first row carrying
	// the attribute, ties within a row sorted — so Attributes() does not
	// depend on how rows were grouped into batches. Columns whose IDs are
	// all zero never register, like an attribute no entry carries.
	found := 0
	seenCol := make([]bool, len(b.Cols))
	var names, rowNames []string
	for r := 0; r < rows && found < len(b.Cols); r++ {
		rowNames = rowNames[:0]
		for ci := range b.Cols {
			if !seenCol[ci] && b.Cols[ci].IDs[r] != 0 {
				seenCol[ci] = true
				found++
				rowNames = append(rowNames, b.Cols[ci].Name)
			}
		}
		sort.Strings(rowNames)
		names = append(names, rowNames...)
	}
	if len(names) > 0 {
		s.registerAttrNames(names)
	}

	// Distinct-value tracking for the sketch tier: only values actually
	// used by rows count (a dictionary entry no row references is not a
	// sighting). Tier-ups run before the batch takes the sketch gate; the
	// batch then feeds the sketches itself.
	{
		sketched := s.sketchedSet()
		var tier []string
		for ci := range b.Cols {
			col := &b.Cols[ci]
			if sketched[col.Name] {
				continue
			}
			used := make([]bool, len(col.Dict))
			for _, id := range col.IDs {
				used[id] = true
			}
			vals := make([]string, 0, len(col.Dict))
			for id := 1; id < len(col.Dict); id++ {
				if used[id] {
					vals = append(vals, col.Dict[id])
				}
			}
			if len(vals) > 0 && s.trackValues(col.Name, vals) {
				tier = append(tier, col.Name)
			}
		}
		sort.Strings(tier)
		for _, name := range tier {
			s.tierUp(name)
		}
	}

	// From here to the last shard append the batch holds the sketch gate in
	// read mode: no tier-up or rebuild replays the shards in between, so the
	// feed below and a replay never both count a row, and the batch is fed
	// and landed under one sketched-set snapshot.
	s.sk.tierMu.RLock()
	defer s.sk.tierMu.RUnlock()
	sketched := s.sketchedSet()

	// Shard placement: by device-attribute hash when the row has one
	// (precomputed per dictionary value, not per row, so one device's
	// rows stay together), round-robin by sequence otherwise. order lists
	// the batch rows shard-major, batch order within a shard; shard si's
	// rows are order[shardEnd[si-1]:shardEnd[si]].
	base := s.seq.Add(int64(rows)) - int64(rows)
	devCol := -1
	for ci := range b.Cols {
		if b.Cols[ci].Name == AttrDevice {
			devCol = ci
			break
		}
	}
	var devShard []uint8
	if devCol >= 0 {
		devShard = make([]uint8, len(b.Cols[devCol].Dict))
		for id := 1; id < len(devShard); id++ {
			devShard[id] = uint8(hashString(b.Cols[devCol].Dict[id]) & shardMask)
		}
	}
	shardOf := make([]uint8, rows)
	var shardEnd [numShards]int
	for i := 0; i < rows; i++ {
		si := uint8((base + int64(i)) & shardMask)
		if devCol >= 0 {
			if id := b.Cols[devCol].IDs[i]; id != 0 {
				si = devShard[id]
			}
		}
		shardOf[i] = si
		shardEnd[si]++
	}
	sum := 0
	for si, n := range shardEnd {
		shardEnd[si] = sum // start for now; advanced to end by the placement below
		sum += n
	}
	order := make([]int32, rows)
	for i, si := range shardOf {
		order[shardEnd[si]] = int32(i)
		shardEnd[si]++
	}

	// The sketches are fed before the rows land and outside the shard
	// locks: a view that can see a row then finds its sketch mass already
	// there (estimates stay one-sided), and appenders contend on a ring
	// only for the adds of one batch.
	s.sk.feedBatch(sketched, b, order)

	lo := 0
	for si := range s.shards {
		shardRows := order[lo:shardEnd[si]]
		lo = shardEnd[si]
		if len(shardRows) == 0 {
			continue
		}
		sh := &s.shards[si]
		// Per-shard lazy state: the shard column and the batch→shard
		// dictionary remap for each batch column, resolved on first use.
		shCols := make([]*column, len(b.Cols))
		remaps := make([][]uint32, len(b.Cols))
		sh.mu.Lock()
		for _, bi := range shardRows {
			row := len(sh.times)
			sh.noteTime(b.Times[bi])
			sh.seqs = append(sh.seqs, base+int64(bi))
			sh.times = append(sh.times, b.Times[bi])
			sh.drift = append(sh.drift, b.Drift[bi])
			if b.Drift[bi] {
				sh.driftBits = setBit(sh.driftBits, row)
			}
			sh.samples = append(sh.samples, b.SampleIDs[bi])
			for ci := range b.Cols {
				id := b.Cols[ci].IDs[bi]
				if id == 0 {
					continue
				}
				col := shCols[ci]
				if col == nil {
					name := b.Cols[ci].Name
					var ok bool
					col, ok = sh.cols[name]
					if !ok {
						col = newColumn(row)
						col.sketched = sketched[name]
						sh.cols[name] = col
						sh.order = append(sh.order, name)
					}
					shCols[ci] = col
					remaps[ci] = make([]uint32, len(b.Cols[ci].Dict))
				}
				lid := remaps[ci][id]
				if lid == 0 {
					lid = col.intern(b.Cols[ci].Dict[id])
					remaps[ci][id] = lid
				}
				col.ids = append(col.ids, lid)
				if !col.sketched {
					col.bits[lid] = setBit(col.bits[lid], row)
				}
			}
			// Backfill columns the row did not carry (including shard
			// columns absent from this batch entirely).
			for _, name := range sh.order {
				col := sh.cols[name]
				if len(col.ids) == row {
					col.ids = append(col.ids, 0)
				}
			}
		}
		sh.mu.Unlock()
	}
}

// registerAttrNames records attribute names in the store-wide registry.
// Fresh names are appended in the order given — the caller has already
// arranged discovery order.
func (s *Store) registerAttrNames(names []string) {
	missing := false
	s.attrMu.RLock()
	for _, name := range names {
		if !s.attrSeen[name] {
			missing = true
			break
		}
	}
	s.attrMu.RUnlock()
	if !missing {
		return
	}
	s.attrMu.Lock()
	for _, name := range names {
		if !s.attrSeen[name] {
			s.attrSeen[name] = true
			s.attrOrder = append(s.attrOrder, name)
		}
	}
	s.attrMu.Unlock()
}
