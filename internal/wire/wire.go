// Package wire implements the binary ingest framing of the v1 API: a
// compact, self-describing encoding of one drift-log batch, negotiated
// on /v1/ingest and /v1/ingest/batch via the application/x-nazar-batch
// content type (JSON stays the debug default).
//
// A frame is length-prefixed, versioned and CRC32C-checked, reusing the
// WAL's conventions (internal/driftlog/wal.go):
//
//	"NZB1" | version | flags | payload len (u32 LE) | CRC32C (u32 LE) | payload
//
// The payload lays the batch out columnar — delta-encoded varint
// timestamps, an LSB-first drift bitmap, varint sample IDs, then one
// dictionary page plus one uvarint ID page per attribute column, and
// (flag bit 0) the sparse float64 sample section the WAL record also
// carries (driftlog.AppendSampleSection). Attribute values are
// dictionary-encoded exactly like the drift log's own columns (ID 0 =
// missing), so a decoded frame appends into the store's interned-value
// and bitset structures through driftlog.(*Store).AppendColumns without
// a per-row struct round-trip.
//
// Decoding is strict and total: every malformation — torn frames, bad
// dictionary indexes, flag bytes from future versions, implausible
// counts — returns a typed *DecodeError, never a panic and never an
// attacker-sized allocation (claimed counts are checked against the
// bytes actually present before any allocation).
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"nazar/internal/driftlog"
)

const (
	// Magic opens every frame.
	Magic = "NZB1"
	// Version is the frame format version.
	Version = 1
	// ContentType is the negotiated media type for binary batches.
	ContentType = "application/x-nazar-batch"

	// flagSamples marks a frame carrying a sample section. All other
	// flag bits are reserved for future versions and must be rejected.
	flagSamples = 0x01

	// headerSize is magic + version + flags + length + crc.
	headerSize = 4 + 1 + 1 + 4 + 4

	// MaxFrameBytes bounds a frame payload; larger length claims mark
	// corruption (mirrors the WAL's maxWALRecord).
	MaxFrameBytes = 64 << 20
)

// castagnoli is the CRC32C table shared with the WAL framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DecodeError is the typed decode failure: where in the frame the first
// bad byte sits and what check it failed. Every decode failure is one
// of these (or a frame/batch size violation wrapped in one).
type DecodeError struct {
	// Offset is the byte offset of the failed check within the frame.
	Offset int
	// Reason describes the failed check.
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("wire: invalid frame at byte %d: %s", e.Offset, e.Reason)
}

func derr(off int, format string, args ...any) error {
	return &DecodeError{Offset: off, Reason: fmt.Sprintf(format, args...)}
}

// EncodeBatch encodes one frame.
func EncodeBatch(b *driftlog.ColumnarBatch) ([]byte, error) { return AppendFrame(nil, b) }

// AppendFrame appends one encoded frame to dst (scratch reuse for the
// spooling transport). The batch, sample column included, must validate.
func AppendFrame(dst []byte, b *driftlog.ColumnarBatch) ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("wire: encode: %w", err)
	}
	rows := b.Rows()
	var flags byte
	for _, s := range b.Samples {
		if s != nil {
			flags |= flagSamples
			break
		}
	}

	base := len(dst)
	dst = append(dst, Magic...)
	dst = append(dst, Version, flags)
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
		dst = driftlog.AppendSampleSection(dst, b.Samples)
	}

	payload := dst[p:]
	if len(payload) > MaxFrameBytes {
		return nil, fmt.Errorf("wire: encode: payload %d bytes exceeds %d", len(payload), MaxFrameBytes)
	}
	binary.LittleEndian.PutUint32(dst[base+6:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[base+10:], crc32.Checksum(payload, castagnoli))
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// reader walks a frame payload with bounds checking, tracking the
// absolute frame offset for error messages.
type reader struct {
	p   []byte
	off int
}

func (d *reader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		return 0, derr(d.off, "truncated %s", what)
	}
	d.p = d.p[n:]
	d.off += n
	return v, nil
}

func (d *reader) varint(what string) (int64, error) {
	v, n := binary.Varint(d.p)
	if n <= 0 {
		return 0, derr(d.off, "truncated %s", what)
	}
	d.p = d.p[n:]
	d.off += n
	return v, nil
}

func (d *reader) bytes(n int, what string) ([]byte, error) {
	if n > len(d.p) {
		return nil, derr(d.off, "%s needs %d bytes, %d remain", what, n, len(d.p))
	}
	b := d.p[:n]
	d.p = d.p[n:]
	d.off += n
	return b, nil
}

func (d *reader) str(what string) (string, error) {
	n, err := d.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.p)) {
		return "", derr(d.off, "%s length %d exceeds remaining %d bytes", what, n, len(d.p))
	}
	s := string(d.p[:n])
	d.p = d.p[n:]
	d.off += int(n)
	return s, nil
}

// DecodeBatch decodes one frame. maxRows, when positive, bounds the
// accepted row count (the server passes its batch cap, so a hostile
// frame cannot pin unbounded memory). Every failure is a *DecodeError.
func DecodeBatch(p []byte, maxRows int) (*driftlog.ColumnarBatch, error) {
	if len(p) < headerSize {
		return nil, derr(0, "short frame: %d bytes, header needs %d", len(p), headerSize)
	}
	if string(p[:4]) != Magic {
		return nil, derr(0, "bad magic %q", p[:4])
	}
	if p[4] != Version {
		return nil, derr(4, "unsupported frame version %d", p[4])
	}
	flags := p[5]
	if flags&^byte(flagSamples) != 0 {
		return nil, derr(5, "unknown flag bits %#02x (future version?)", flags&^byte(flagSamples))
	}
	length := binary.LittleEndian.Uint32(p[6:10])
	want := binary.LittleEndian.Uint32(p[10:14])
	if length > MaxFrameBytes {
		return nil, derr(6, "implausible payload length %d", length)
	}
	if int(length) != len(p)-headerSize {
		return nil, derr(6, "payload length %d does not match %d remaining bytes", length, len(p)-headerSize)
	}
	payload := p[headerSize:]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, derr(10, "crc mismatch: got %08x want %08x", got, want)
	}

	d := &reader{p: payload, off: headerSize}
	rowsU, err := d.uvarint("row count")
	if err != nil {
		return nil, err
	}
	// A row costs at least 1 time byte + 1 sample-ID byte + a bitmap
	// bit, so a count beyond the payload size is corrupt — and never
	// drives the allocations below.
	if rowsU > uint64(len(d.p)) {
		return nil, derr(headerSize, "row count %d exceeds payload capacity", rowsU)
	}
	rows := int(rowsU)
	if maxRows > 0 && rows > maxRows {
		return nil, derr(headerSize, "row count %d exceeds limit %d", rows, maxRows)
	}

	b := &driftlog.ColumnarBatch{
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
		return nil, derr(d.off, "column count %d exceeds payload capacity", ncols)
	}
	b.Cols = make([]driftlog.ColumnData, 0, ncols)
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
			return nil, derr(d.off, "column %q: dictionary size %d exceeds payload capacity", name, ndict)
		}
		dict := make([]string, 1, ndict+1)
		dict[0] = ""
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
				return nil, derr(d.off, "column %q row %d: dictionary index %d out of range (dict size %d)",
					name, r, id, ndict)
			}
			ids[r] = uint32(id)
		}
		b.Cols = append(b.Cols, driftlog.ColumnData{Name: name, Dict: dict, IDs: ids})
	}

	if flags&flagSamples != 0 {
		samples, n, err := driftlog.DecodeSampleSection(d.p, rows)
		if err != nil {
			return nil, derr(d.off, "%v", err)
		}
		b.Samples = samples
		d.p = d.p[n:]
		d.off += n
	}
	if len(d.p) != 0 {
		return nil, derr(d.off, "%d trailing bytes after frame payload", len(d.p))
	}
	if err := b.Validate(); err != nil {
		return nil, derr(headerSize, "decoded batch invalid: %v", err)
	}
	return b, nil
}
