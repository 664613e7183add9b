// Codec seam of the v1 ingest API. /v1/ingest/batch takes one body:
// application/x-nazar-batch, the drift log's NZB1 frame (the same bytes
// the WAL persists), identity-encoded. JSONCodec renders the same batch
// in readable form, which the route refuses. Acknowledgements and error
// envelopes are always JSON, which is why negotiation checks the Accept
// header against application/json.
package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"

	"nazar/internal/driftlog"
)

// Media types of an ingest batch: the frame the route takes and the
// readable form it refuses.
const (
	ContentTypeJSON   = "application/json"
	ContentTypeBinary = "application/x-nazar-batch"
)

// BatchFrame is the codec-independent decoded form of one ingest batch:
// row form (Entries, with the optional Samples alongside) or columnar form
// (Columns, which carries its own sample column). Exactly one of
// Entries/Columns is set after a decode; an encode accepts either (a
// codec converts as needed). Row form exists only at this edge: the
// server decodes frames, whose batches are columnar.
type BatchFrame struct {
	Entries []driftlog.Entry
	Columns *driftlog.ColumnarBatch
	Samples [][]float64
}

// rowForm returns the entries and samples, materializing them from
// columns if needed.
func (f *BatchFrame) rowForm() ([]driftlog.Entry, [][]float64) {
	if f.Columns == nil {
		return f.Entries, f.Samples
	}
	return f.Columns.Entries(), f.Columns.Samples
}

// columns returns the columnar form, adapting row form if needed.
func (f *BatchFrame) columns() *driftlog.ColumnarBatch {
	if f.Columns != nil {
		return f.Columns
	}
	b := driftlog.ColumnsFromEntries(f.Entries)
	b.Samples = f.Samples
	return b
}

// Codec encodes and decodes ingest batches for one media type. The
// server decodes BinaryCodec only; Client and transport.Client encode
// through the interface.
type Codec interface {
	// ContentType returns the media type the codec serves.
	ContentType() string
	// EncodeBatch renders a batch as a request body.
	EncodeBatch(f *BatchFrame) ([]byte, error)
	// DecodeBatch parses a request body. maxEntries, when positive,
	// bounds the accepted row count.
	DecodeBatch(r io.Reader, maxEntries int) (*BatchFrame, error)
}

// JSONCodec is the readable form of a batch, the IngestBatchRequest JSON
// body, strictly decoded (unknown fields and trailing data rejected). The
// ingest route refuses it with 415 codec_unsupported; it stays as the
// operator's view of a frame, and bench/ replays it for its
// httpapi.json_* metrics.
type JSONCodec struct{}

// ContentType implements Codec.
func (JSONCodec) ContentType() string { return ContentTypeJSON }

// EncodeBatch implements Codec.
func (JSONCodec) EncodeBatch(f *BatchFrame) ([]byte, error) {
	entries, samples := f.rowForm()
	data, err := json.Marshal(IngestBatchRequest{Entries: entries, Samples: samples})
	if err != nil {
		return nil, fmt.Errorf("httpapi: marshal: %w", err)
	}
	return data, nil
}

// DecodeBatch implements Codec.
func (JSONCodec) DecodeBatch(r io.Reader, maxEntries int) (*BatchFrame, error) {
	var req IngestBatchRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	return &BatchFrame{Entries: req.Entries, Samples: req.Samples}, nil
}

// BinaryCodec is the ingest route's one codec and Client's default: the
// drift log's NZB1 frame (driftlog.AppendFrame), CRC32C framed,
// dictionary-encoded, appended into the drift log without a per-row
// struct round trip.
type BinaryCodec struct{}

// ContentType implements Codec.
func (BinaryCodec) ContentType() string { return ContentTypeBinary }

// EncodeBatch implements Codec.
func (BinaryCodec) EncodeBatch(f *BatchFrame) ([]byte, error) {
	return driftlog.AppendFrame(nil, f.columns())
}

// DecodeBatch implements Codec.
func (BinaryCodec) DecodeBatch(r io.Reader, maxEntries int) (*BatchFrame, error) {
	data, err := readFrame(r)
	if err != nil {
		return nil, fmt.Errorf("httpapi: read frame: %w", err)
	}
	b, err := driftlog.DecodeFrame(data, maxEntries)
	if err != nil {
		return nil, err
	}
	return &BatchFrame{Columns: b}, nil
}

// sizedBody is an ingest request body with the length its Content-Length
// header declared: -1 when it declared none (a chunked body).
type sizedBody struct {
	io.Reader
	size int64
}

// maxFrameHint caps the buffer readFrame sizes from a declared length
// before any byte has arrived: a client that declares the route's bound
// and then trickles bytes pins at most this much.
const maxFrameHint = 1 << 20

// readFrame reads a binary body whole. A sizedBody's declared length
// (capped at maxFrameHint) pre-sizes the buffer, so a typical batch is read
// in one allocation; past that the buffer grows only as bytes arrive. A
// body running past its http.MaxBytesReader bound fails the read with
// *http.MaxBytesError.
func readFrame(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if sb, ok := r.(sizedBody); ok && sb.size > 0 {
		// MinRead of room past the body lets the read that sees EOF
		// happen without growing the buffer.
		buf.Grow(int(min(sb.size, maxFrameHint)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// negotiateCodec admits an identity-encoded NZB1 body whose sender
// accepts the JSON acknowledgement. Failures are written as typed
// envelopes: 415 + codec_unsupported for any other Content-Type (an
// absent one included) or any Content-Encoding but identity, 406 +
// codec_unsupported for an Accept header that excludes JSON.
func negotiateCodec(w http.ResponseWriter, r *http.Request) bool {
	if enc := r.Header.Get("Content-Encoding"); enc != "" && enc != "identity" {
		writeError(w, http.StatusUnsupportedMediaType, CodeCodecUnsupported,
			fmt.Sprintf("httpapi: unsupported content encoding %q", enc))
		return false
	}
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != ContentTypeBinary {
		writeError(w, http.StatusUnsupportedMediaType, CodeCodecUnsupported,
			fmt.Sprintf("httpapi: unsupported content type %q (the route takes %s)", ct, ContentTypeBinary))
		return false
	}
	if !acceptsJSON(r.Header.Get("Accept")) {
		writeError(w, http.StatusNotAcceptable, CodeCodecUnsupported,
			"httpapi: acknowledgements are application/json; Accept must allow it")
		return false
	}
	return true
}

// acceptsJSON reports whether the Accept header admits application/json
// responses (an absent header accepts everything).
func acceptsJSON(accept string) bool {
	if accept == "" {
		return true
	}
	for _, part := range strings.Split(accept, ",") {
		mt, _, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil {
			continue
		}
		if mt == "*/*" || mt == "application/*" || mt == ContentTypeJSON {
			return true
		}
	}
	return false
}
