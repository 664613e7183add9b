package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Error codes carried in the error envelope. Codes are the stable,
// machine-readable half of the contract: messages may change wording,
// codes may not.
const (
	// CodeInvalidJSON marks a body that failed strict decoding
	// (malformed JSON, unknown fields, trailing data).
	CodeInvalidJSON = "invalid_json"
	// CodeInvalidRequest marks a well-formed body or query that fails
	// domain validation (missing attrs, empty batch, bad since=...).
	CodeInvalidRequest = "invalid_request"
	// CodeNotFound marks an unknown route.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed marks a known route hit with the wrong verb.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeCanceled marks a request abandoned by the caller (the handler
	// observed context cancellation mid-flight).
	CodeCanceled = "canceled"
	// CodeInternal marks a server-side failure, including recovered
	// handler panics.
	CodeInternal = "internal"
	// CodeCodecUnsupported marks a failed content negotiation: an
	// unknown Content-Type or Content-Encoding (415) or an Accept
	// header that excludes the JSON acknowledgement (406).
	CodeCodecUnsupported = "codec_unsupported"
	// CodeInvalidFrame marks a body in a negotiated non-JSON codec that
	// failed decoding (torn frame, CRC mismatch, bad dictionary index).
	CodeInvalidFrame = "invalid_frame"
	// CodeBodyTooLarge marks a request body over the route's size bound
	// (413), whatever its codec.
	CodeBodyTooLarge = "body_too_large"
)

// APIError is the typed form of a server error envelope. The client
// returns *APIError for every non-2xx response, so callers can branch
// on the code with errors.As:
//
//	var apiErr *httpapi.APIError
//	if errors.As(err, &apiErr) && apiErr.Code == httpapi.CodeInvalidRequest { ... }
type APIError struct {
	// Status is the HTTP status code of the response.
	Status int `json:"-"`
	// Code is the stable machine-readable error code.
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// RetryAfter is the parsed Retry-After response header (0 when the
	// server sent none): the server's own backpressure hint, which
	// retrying clients must honor over their local backoff schedule.
	RetryAfter time.Duration `json:"-"`
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("httpapi: HTTP %d [%s]: %s", e.Status, e.Code, e.Message)
}

// errorEnvelope is the wire form of every non-2xx JSON response:
//
//	{"error":{"code":"invalid_request","message":"..."}}
type errorEnvelope struct {
	Error *APIError `json:"error"`
}

// writeError emits the error envelope. It must be the only error path
// in handlers — http.Error would break the JSON contract.
func writeError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: &APIError{Code: code, Message: message}})
}

// writeDecodeError answers a body that failed to decode in codec c: 413
// + body_too_large when the body ran past its http.MaxBytesReader bound,
// else 400 + invalid_json for JSON and invalid_frame for any other codec.
func writeDecodeError(w http.ResponseWriter, c Codec, err error) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge, err.Error())
	case c.ContentType() == ContentTypeJSON:
		writeError(w, http.StatusBadRequest, CodeInvalidJSON, err.Error())
	default:
		writeError(w, http.StatusBadRequest, CodeInvalidFrame, err.Error())
	}
}

// decodeAPIError reconstructs an *APIError from a non-2xx response
// body. Non-envelope bodies (a proxy's HTML, a truncated response)
// degrade to CodeInternal with the raw body as the message.
func decodeAPIError(status int, body []byte) *APIError {
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		env.Error.Status = status
		return env.Error
	}
	msg := string(body)
	if msg == "" {
		msg = http.StatusText(status)
	}
	return &APIError{Status: status, Code: CodeInternal, Message: msg}
}

// parseRetryAfter parses a Retry-After header value: delta-seconds or
// an HTTP-date (resolved against now). Unparseable or past values are
// 0 — "no hint".
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}
