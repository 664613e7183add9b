// NZB1 frames: the drift log's one binary encoding of a batch. The same
// bytes are the body of a binary ingest request and the payload of a WAL
// record, so a batch is encoded once after the cloud stamps its sample
// IDs and never re-encoded: replay decodes a frame straight into
// appendColumns.
//
// A frame is length-prefixed, versioned and CRC32C-checked:
//
//	"NZB1" | version | flags | payload len (u32 LE) | CRC32C (u32 LE) | payload
//
// The payload lays the batch out columnar — delta-encoded varint
// timestamps, an LSB-first drift bitmap, varint sample IDs, then one
// dictionary page plus one uvarint ID page per attribute column, and
// (flag bit 0) the sparse float64 sample section. Attribute values are
// dictionary-encoded exactly like the store's own columns (ID 0 =
// missing), so a decoded frame appends into the interned-value and
// bitset structures without a per-row struct round trip.
//
// Decoding is strict and total: every malformation — torn frames, bad
// dictionary indexes, flag bytes from future versions, implausible
// counts — returns a typed *FrameError, never a panic and never an
// attacker-sized allocation (claimed counts are checked against the
// bytes actually present before any allocation).
package driftlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	// frameMagic opens every frame.
	frameMagic = "NZB1"
	// frameVersion is the frame format version.
	frameVersion = 1

	// flagSamples marks a frame carrying a sample section. All other
	// flag bits are reserved for future versions and must be rejected.
	flagSamples = 0x01

	// frameHeaderSize is magic + version + flags + length + crc.
	frameHeaderSize = 4 + 1 + 1 + 4 + 4

	// maxFramePayload bounds a frame payload; larger length claims mark
	// corruption, and an encode that would exceed it is refused.
	maxFramePayload = 64 << 20
)

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64)
// behind both the frame and the WAL record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFrameTooLarge marks a batch whose frame would exceed the payload
// bound. It is a property of the batch, not of the log: the WAL refuses
// such a batch before writing anything and stays healthy.
var ErrFrameTooLarge = errors.New("driftlog: batch exceeds the frame size bound")

// FrameError is the typed decode failure: where in the frame the first
// bad byte sits and what check it failed.
type FrameError struct {
	// Offset is the byte offset of the failed check within the frame.
	Offset int
	// Reason describes the failed check.
	Reason string
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("driftlog: invalid frame at byte %d: %s", e.Offset, e.Reason)
}

func frameErr(off int, format string, args ...any) error {
	return &FrameError{Offset: off, Reason: fmt.Sprintf(format, args...)}
}

// AppendFrame appends the frame of b to dst. The batch, sample column
// included, must validate; a batch whose payload would exceed the bound
// fails with ErrFrameTooLarge.
func AppendFrame(dst []byte, b *ColumnarBatch) ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("driftlog: encode frame: %w", err)
	}
	return appendFrame(dst, b)
}

// appendFrame is AppendFrame for a batch already validated.
func appendFrame(dst []byte, b *ColumnarBatch) ([]byte, error) {
	rows := b.Rows()
	var flags byte
	sampleBytes := 0
	for _, s := range b.Samples {
		if s != nil {
			flags |= flagSamples
			sampleBytes += 8 * len(s)
		}
	}
	// The vectors alone can exceed the bound: refuse before encoding them.
	if sampleBytes > maxFramePayload {
		return nil, fmt.Errorf("%w: %d sample bytes, bound %d", ErrFrameTooLarge, sampleBytes, maxFramePayload)
	}

	base := len(dst)
	dst = append(dst, frameMagic...)
	dst = append(dst, frameVersion, flags)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc placeholder
	p := len(dst)

	dst = binary.AppendUvarint(dst, uint64(rows))
	var prev int64
	for _, t := range b.Times {
		dst = binary.AppendVarint(dst, t-prev)
		prev = t
	}
	off := len(dst)
	dst = append(dst, make([]byte, (rows+7)/8)...)
	for r, d := range b.Drift {
		if d {
			dst[off+r/8] |= 1 << (r % 8)
		}
	}
	for _, id := range b.SampleIDs {
		dst = binary.AppendVarint(dst, id)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.Cols)))
	for ci := range b.Cols {
		col := &b.Cols[ci]
		dst = appendString(dst, col.Name)
		dst = binary.AppendUvarint(dst, uint64(len(col.Dict)-1))
		for _, v := range col.Dict[1:] {
			dst = appendString(dst, v)
		}
		for _, id := range col.IDs {
			dst = binary.AppendUvarint(dst, uint64(id))
		}
	}
	if flags&flagSamples != 0 {
		dst = appendSampleSection(dst, b.Samples)
	}

	payload := dst[p:]
	if len(payload) > maxFramePayload {
		return nil, fmt.Errorf("%w: payload %d bytes, bound %d", ErrFrameTooLarge, len(payload), maxFramePayload)
	}
	binary.LittleEndian.PutUint32(dst[base+6:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[base+10:], crc32.Checksum(payload, castagnoli))
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendSampleSection appends the encoding of a batch's sample column:
// the number of rows that carry a vector, then per such row, ascending,
// its row index, its dimension and its values as little-endian float64
// bits (uvarints elsewhere). A nil entry carries no vector.
func appendSampleSection(dst []byte, samples [][]float64) []byte {
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

// reader walks an encoding with bounds checking, tracking the absolute
// offset for error messages. Every failure is a *FrameError.
type reader struct {
	p   []byte
	off int
}

func (d *reader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		return 0, frameErr(d.off, "truncated %s", what)
	}
	d.p = d.p[n:]
	d.off += n
	return v, nil
}

func (d *reader) varint(what string) (int64, error) {
	v, n := binary.Varint(d.p)
	if n <= 0 {
		return 0, frameErr(d.off, "truncated %s", what)
	}
	d.p = d.p[n:]
	d.off += n
	return v, nil
}

func (d *reader) bytes(n int, what string) ([]byte, error) {
	if n > len(d.p) {
		return nil, frameErr(d.off, "%s needs %d bytes, %d remain", what, n, len(d.p))
	}
	b := d.p[:n]
	d.p = d.p[n:]
	d.off += n
	return b, nil
}

func (d *reader) str(what string) (string, error) {
	n, k := binary.Uvarint(d.p)
	if k <= 0 {
		return "", frameErr(d.off, "truncated %s length", what)
	}
	d.p = d.p[k:]
	d.off += k
	if n > uint64(len(d.p)) {
		return "", frameErr(d.off, "%s length %d exceeds remaining %d bytes", what, n, len(d.p))
	}
	b, _ := d.bytes(int(n), what)
	return string(b), nil
}

// decodeSampleSection decodes an appendSampleSection encoding for a batch
// of rows rows, returning the sample column (nil when no row carries a
// vector). A count above rows, a row out of range or not above the
// previous one, and a dimension beyond the remaining bytes are errors,
// checked before anything is allocated.
func decodeSampleSection(d *reader, rows int) ([][]float64, error) {
	count, err := d.uvarint("sample count")
	if err != nil {
		return nil, err
	}
	if count > uint64(rows) {
		return nil, frameErr(d.off, "sample count %d exceeds %d rows", count, rows)
	}
	var samples [][]float64
	if count > 0 {
		samples = make([][]float64, rows)
	}
	last := -1
	for i := uint64(0); i < count; i++ {
		r, err := d.uvarint("sample row")
		if err != nil {
			return nil, err
		}
		if r >= uint64(rows) || int(r) <= last {
			return nil, frameErr(d.off, "sample row %d out of range (%d rows) or not above %d", r, rows, last)
		}
		last = int(r)
		dim, err := d.uvarint("sample dimension")
		if err != nil {
			return nil, err
		}
		if dim > uint64(len(d.p)/8) {
			return nil, frameErr(d.off, "sample dimension %d exceeds payload capacity", dim)
		}
		raw, _ := d.bytes(8*int(dim), "sample values")
		x := make([]float64, dim)
		for j := range x {
			x[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
		}
		samples[r] = x
	}
	return samples, nil
}

// DecodeFrame decodes one frame. maxRows, when positive, bounds the
// accepted row count (the server passes its batch cap, so a hostile
// frame cannot pin unbounded memory). Every failure is a *FrameError.
func DecodeFrame(p []byte, maxRows int) (*ColumnarBatch, error) {
	if len(p) < frameHeaderSize {
		return nil, frameErr(0, "short frame: %d bytes, header needs %d", len(p), frameHeaderSize)
	}
	if string(p[:4]) != frameMagic {
		return nil, frameErr(0, "bad magic %q", p[:4])
	}
	if p[4] != frameVersion {
		return nil, frameErr(4, "unsupported frame version %d", p[4])
	}
	flags := p[5]
	if flags&^byte(flagSamples) != 0 {
		return nil, frameErr(5, "unknown flag bits %#02x (future version?)", flags&^byte(flagSamples))
	}
	length := binary.LittleEndian.Uint32(p[6:10])
	want := binary.LittleEndian.Uint32(p[10:14])
	if length > maxFramePayload {
		return nil, frameErr(6, "implausible payload length %d", length)
	}
	if int(length) != len(p)-frameHeaderSize {
		return nil, frameErr(6, "payload length %d does not match %d remaining bytes", length, len(p)-frameHeaderSize)
	}
	payload := p[frameHeaderSize:]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, frameErr(10, "crc mismatch: got %08x want %08x", got, want)
	}

	d := &reader{p: payload, off: frameHeaderSize}
	rowsU, err := d.uvarint("row count")
	if err != nil {
		return nil, err
	}
	// A row costs at least 1 time byte + 1 sample-ID byte + a bitmap
	// bit, so a count beyond the payload size is corrupt — and never
	// drives the allocations below.
	if rowsU > uint64(len(d.p)) {
		return nil, frameErr(frameHeaderSize, "row count %d exceeds payload capacity", rowsU)
	}
	rows := int(rowsU)
	if maxRows > 0 && rows > maxRows {
		return nil, frameErr(frameHeaderSize, "row count %d exceeds limit %d", rows, maxRows)
	}

	b := &ColumnarBatch{
		Times:     make([]int64, rows),
		Drift:     make([]bool, rows),
		SampleIDs: make([]int64, rows),
	}
	var prev int64
	for r := 0; r < rows; r++ {
		dt, err := d.varint("time delta")
		if err != nil {
			return nil, err
		}
		prev += dt
		b.Times[r] = prev
	}
	bm, err := d.bytes((rows+7)/8, "drift bitmap")
	if err != nil {
		return nil, err
	}
	for r := 0; r < rows; r++ {
		b.Drift[r] = bm[r/8]&(1<<(r%8)) != 0
	}
	for r := 0; r < rows; r++ {
		id, err := d.varint("sample id")
		if err != nil {
			return nil, err
		}
		b.SampleIDs[r] = id
	}

	ncols, err := d.uvarint("column count")
	if err != nil {
		return nil, err
	}
	// Each column costs at least a name byte, a dict-size byte and one
	// ID byte per row.
	if ncols > uint64(len(d.p)/2+1) {
		return nil, frameErr(d.off, "column count %d exceeds payload capacity", ncols)
	}
	b.Cols = make([]ColumnData, 0, ncols)
	for c := uint64(0); c < ncols; c++ {
		name, err := d.str("column name")
		if err != nil {
			return nil, err
		}
		ndict, err := d.uvarint("dictionary size")
		if err != nil {
			return nil, err
		}
		if ndict > uint64(len(d.p)+1) {
			return nil, frameErr(d.off, "column %q: dictionary size %d exceeds payload capacity", name, ndict)
		}
		dict := make([]string, 1, ndict+1)
		for v := uint64(0); v < ndict; v++ {
			s, err := d.str("dictionary value")
			if err != nil {
				return nil, err
			}
			dict = append(dict, s)
		}
		ids := make([]uint32, rows)
		for r := 0; r < rows; r++ {
			id, err := d.uvarint("dictionary id")
			if err != nil {
				return nil, err
			}
			if id > ndict {
				return nil, frameErr(d.off, "column %q row %d: dictionary index %d out of range (dict size %d)",
					name, r, id, ndict)
			}
			ids[r] = uint32(id)
		}
		b.Cols = append(b.Cols, ColumnData{Name: name, Dict: dict, IDs: ids})
	}

	if flags&flagSamples != 0 {
		if b.Samples, err = decodeSampleSection(d, rows); err != nil {
			return nil, err
		}
	}
	if len(d.p) != 0 {
		return nil, frameErr(d.off, "%d trailing bytes after frame payload", len(d.p))
	}
	if err := b.Validate(); err != nil {
		return nil, frameErr(frameHeaderSize, "decoded batch invalid: %v", err)
	}
	return b, nil
}
