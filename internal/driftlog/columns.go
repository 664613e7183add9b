// Columnar batch form of drift-log entries: the shape an NZB1 frame
// (frame.go) carries and the only form the store appends.
// A ColumnarBatch is the batch-local mirror of the store's own layout —
// dictionary-encoded attribute columns over parallel row arrays — so
// appending one is a dictionary remap plus slice appends, not
// len(entries) map walks. Row form ([]Entry) is adapted at the edge by
// ColumnsFromEntries.
package driftlog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
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
// Cols[*].IDs[i]) describe row i. Times are unix nanoseconds. Samples is
// the uploaded-input column: nil, or one entry per row where a nil (or
// empty) entry means the row carries no sample. The store keeps a copy
// of each vector.
type ColumnarBatch struct {
	Times     []int64
	Drift     []bool
	SampleIDs []int64
	Cols      []ColumnData
	Samples   [][]float64
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
	if b.Samples != nil && len(b.Samples) != rows {
		return fmt.Errorf("driftlog: columnar batch: %d samples do not match %d rows", len(b.Samples), rows)
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
// entry slice. Each row's attribute map is walked once: a batch names
// few attributes, so a linear scan of the columns met so far finds a
// name's column, and the columns are sorted by name at the end.
func ColumnsFromEntries(entries []Entry) *ColumnarBatch {
	b := &ColumnarBatch{
		Times:     make([]int64, len(entries)),
		Drift:     make([]bool, len(entries)),
		SampleIDs: make([]int64, len(entries)),
		Cols:      []ColumnData{},
	}
	var interns []map[string]uint32 // parallel to b.Cols until the sort
	for i := range entries {
		e := &entries[i]
		b.Times[i] = e.Time.UnixNano()
		b.Drift[i] = e.Drift
		b.SampleIDs[i] = e.SampleID
		for name, val := range e.Attrs {
			ci := 0
			for ci < len(b.Cols) && b.Cols[ci].Name != name {
				ci++
			}
			if ci == len(b.Cols) {
				b.Cols = append(b.Cols, ColumnData{Name: name, Dict: []string{""}, IDs: make([]uint32, len(entries))})
				interns = append(interns, map[string]uint32{})
			}
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
	slices.SortFunc(b.Cols, func(x, y ColumnData) int { return strings.Compare(x.Name, y.Name) })
	return b
}

// AppendBatch ingests row-form entries through the columnar path,
// preserving slice order in the store's canonical (sequence) order.
func (s *Store) AppendBatch(entries []Entry) { s.appendColumns(ColumnsFromEntries(entries)) }

// AppendColumns validates and ingests a columnar batch, preserving batch
// row order in the store's canonical (sequence) order.
func (s *Store) AppendColumns(b *ColumnarBatch) error {
	if err := b.Validate(); err != nil {
		return err
	}
	s.appendColumns(b)
	return nil
}

// appendColumns is the one function that writes shard rows. The batch's
// dictionaries are remapped to store ids, and any tier-up run, before a
// shard lock is taken; per shard the append is slice extensions plus the
// bitmaps. b must satisfy Validate (ColumnsFromEntries output does).
func (s *Store) appendColumns(b *ColumnarBatch) {
	rows := b.Rows()
	if rows == 0 {
		return
	}
	remaps, pos, tier := s.intern(b)
	for _, name := range tier {
		s.tierUp(name)
	}

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

	var added int64
	cols := make([]*column, len(b.Cols))
	lo := 0
	for si := range s.shards {
		shardRows := order[lo:shardEnd[si]]
		lo = shardEnd[si]
		if len(shardRows) == 0 {
			continue
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		for ci := range b.Cols {
			cols[ci] = sh.cols[b.Cols[ci].Name]
		}
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
			if b.Samples != nil && len(b.Samples[bi]) > 0 {
				sh.sampleRows = append(sh.sampleRows, row)
				sh.sampleVecs = append(sh.sampleVecs, slices.Clone(b.Samples[bi]))
				added++
			}
			for ci := range b.Cols {
				id := remaps[ci][b.Cols[ci].IDs[bi]]
				if id == 0 {
					continue
				}
				if cols[ci] == nil {
					cols[ci] = sh.newColumn(b.Cols[ci].Name, pos[ci], row, s.tieredSet())
				}
				cols[ci].pad(row) // the rows since its last value lack the attribute
				cols[ci].add(id)
			}
		}
		// Backfill every column to the shard's rows once: the batch's columns
		// past their last value, and those the batch does not carry.
		for _, col := range sh.cols {
			col.pad(len(sh.times))
		}
		sh.mu.Unlock()
	}
	s.samplesAdded.Add(added)
}

// newColumn adds the shard's column for an attribute first carried by row
// (the rows before it backfilled as missing), on the bitmaps unless the
// attribute tiered up. Called under the shard lock, which a tier-up holds
// while it publishes the tiered set.
func (sh *shard) newColumn(name string, pos, row int, tiered map[string]bool) *column {
	col := &column{pos: pos, ids: make([]uint32, row), tiered: tiered[name]}
	sh.cols[name] = col
	sh.order = append(sh.order, name)
	return col
}

// intern maps each batch column's dictionary to store ids, remaps[ci][batch
// id], interning the values some row carries, and returns the position of
// each column some row carries (pos[ci]) and, sorted, the attributes on the
// bitmaps whose dictionary just grew past the threshold. In the steady state
// the read-locked pass resolves every value; only a miss takes the write
// lock.
func (s *Store) intern(b *ColumnarBatch) (remaps [][]uint32, pos []int, tier []string) {
	const unresolved = ^uint32(0)
	remaps = make([][]uint32, len(b.Cols))
	pos = make([]int, len(b.Cols))
	for ci := range b.Cols {
		m := make([]uint32, len(b.Cols[ci].Dict))
		for _, id := range b.Cols[ci].IDs {
			m[id] = unresolved
		}
		m[0] = 0
		remaps[ci] = m
	}
	resolve := func() (missing bool) {
		for ci := range b.Cols {
			var index map[string]uint32 // nil before the attribute's first value
			if d := s.dicts[b.Cols[ci].Name]; d != nil {
				index, pos[ci] = d.index, d.pos
			}
			for id, sid := range remaps[ci] {
				if sid != unresolved {
					continue
				}
				if sid = index[b.Cols[ci].Dict[id]]; sid == 0 {
					missing = true
					continue
				}
				remaps[ci][id] = sid
			}
		}
		return missing
	}
	s.dictMu.RLock()
	missing := resolve()
	s.dictMu.RUnlock()
	if !missing {
		return remaps, pos, nil
	}
	s.dictMu.Lock()
	defer s.dictMu.Unlock()
	s.registerAttrNames(b)
	tiered := s.tieredSet()
	for ci := range b.Cols {
		col := &b.Cols[ci]
		d := s.dicts[col.Name] // nil for a column no row carries
		if d != nil {
			pos[ci] = d.pos
		}
		grew := false
		for id, sid := range remaps[ci] {
			if sid != unresolved {
				continue
			}
			v := col.Dict[id]
			if sid = d.index[v]; sid == 0 {
				sid = uint32(len(d.vals))
				d.vals = append(d.vals, v)
				d.index[v] = sid
				grew = true
			}
			remaps[ci][id] = sid
		}
		if grew && !tiered[col.Name] && len(d.vals)-1 > s.threshold {
			tier = append(tier, col.Name)
		}
	}
	sort.Strings(tier)
	return remaps, pos, tier
}

// registerAttrNames creates a dictionary for each attribute the batch
// carries that has none, in row discovery order — the first row carrying
// it, ties within a row sorted — so Attributes() does not depend on how
// rows were grouped into batches. Called under dictMu's write lock.
func (s *Store) registerAttrNames(b *ColumnarBatch) {
	seen := make([]bool, len(b.Cols))
	var rowNames []string
	for r := range b.Rows() {
		rowNames = rowNames[:0]
		for ci := range b.Cols {
			if !seen[ci] && b.Cols[ci].IDs[r] != 0 {
				seen[ci] = true
				if name := b.Cols[ci].Name; s.dicts[name] == nil {
					rowNames = append(rowNames, name)
				}
			}
		}
		sort.Strings(rowNames)
		for _, name := range rowNames {
			s.dicts[name] = &dict{pos: len(s.attrOrder), vals: []string{""}, index: map[string]uint32{}}
			s.attrOrder = append(s.attrOrder, name)
		}
	}
}
