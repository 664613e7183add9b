// Codec seam of the v1 ingest API: the media-type-negotiated
// encode/decode surface behind /v1/ingest/batch.
// application/x-nazar-batch carries the drift log's NZB1 frame, the same
// bytes the WAL persists, and is what Client ships by default;
// application/json stays for curl and servers that predate the frame.
// Request bodies are identity-encoded. Acknowledgements and error
// envelopes are always JSON, which is why negotiation checks the Accept
// header against application/json rather than the request codec.
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

// Media types the ingest endpoints negotiate.
const (
	ContentTypeJSON   = "application/json"
	ContentTypeBinary = "application/x-nazar-batch"
)

// BatchFrame is the codec-independent decoded form of one ingest batch:
// row form (Entries, with the optional Samples alongside) or columnar form
// (Columns, which carries its own sample column). Exactly one of
// Entries/Columns is set after a decode; an encode accepts either (a
// codec converts as needed). Row form exists only at this edge: the
// server ingests columns().
type BatchFrame struct {
	Entries []driftlog.Entry
	Columns *driftlog.ColumnarBatch
	Samples [][]float64
}

// Rows returns the batch's row count.
func (f *BatchFrame) Rows() int {
	if f.Columns != nil {
		return f.Columns.Rows()
	}
	return len(f.Entries)
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

// Codec encodes and decodes ingest batches for one media type. Both
// halves of the wire use it: the server negotiates a codec per request
// via the Content-Type header, and Client/transport.Client encode
// through the same interface.
type Codec interface {
	// ContentType returns the media type the codec serves.
	ContentType() string
	// EncodeBatch renders a batch as a request body.
	EncodeBatch(f *BatchFrame) ([]byte, error)
	// DecodeBatch parses a request body. maxEntries, when positive,
	// bounds the accepted row count.
	DecodeBatch(r io.Reader, maxEntries int) (*BatchFrame, error)
}

// JSONCodec is the opt-in debug codec and the downgrade target of a
// refused binary frame: the IngestBatchRequest JSON body, strictly
// decoded (unknown fields and trailing data rejected).
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

// BinaryCodec is the columnar binary codec and Client's default: the
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

// codecs is the fixed codec table, sorted by media type.
var codecs = []Codec{JSONCodec{}, BinaryCodec{}}

// CodecFor resolves a media type to its codec.
func CodecFor(mediaType string) (Codec, bool) {
	for _, c := range codecs {
		if c.ContentType() == mediaType {
			return c, true
		}
	}
	return nil, false
}

// ContentTypes lists the supported media types, sorted.
func ContentTypes() []string {
	out := make([]string, len(codecs))
	for i, c := range codecs {
		out[i] = c.ContentType()
	}
	return out
}

// negotiateCodec resolves the request codec from Content-Type (empty
// means JSON) and verifies the client can accept the JSON
// acknowledgement. Failures are written as typed envelopes: 415 +
// codec_unsupported for an unknown request media type or any
// Content-Encoding but identity, 406 + codec_unsupported for an Accept
// header that excludes JSON.
func negotiateCodec(w http.ResponseWriter, r *http.Request) (Codec, bool) {
	if enc := r.Header.Get("Content-Encoding"); enc != "" && enc != "identity" {
		writeError(w, http.StatusUnsupportedMediaType, CodeCodecUnsupported,
			fmt.Sprintf("httpapi: unsupported content encoding %q", enc))
		return nil, false
	}
	mediaType := ContentTypeJSON
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil {
			writeError(w, http.StatusUnsupportedMediaType, CodeCodecUnsupported,
				fmt.Sprintf("httpapi: malformed content type %q: %v", ct, err))
			return nil, false
		}
		mediaType = mt
	}
	codec, ok := CodecFor(mediaType)
	if !ok {
		writeError(w, http.StatusUnsupportedMediaType, CodeCodecUnsupported,
			fmt.Sprintf("httpapi: unsupported content type %q (supported: %s)",
				mediaType, strings.Join(ContentTypes(), ", ")))
		return nil, false
	}
	if !acceptsJSON(r.Header.Get("Accept")) {
		writeError(w, http.StatusNotAcceptable, CodeCodecUnsupported,
			"httpapi: acknowledgements are application/json; Accept must allow it")
		return nil, false
	}
	return codec, true
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
