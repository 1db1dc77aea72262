package serve

import (
	"fmt"
	"net/http"
)

// apiError is a typed rejection: every non-200 the daemon produces carries
// one of these codes, so clients (and the chaos suite) can tell load
// shedding from deadline expiry from a genuine internal failure — a request
// is never silently lost.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorBody is the JSON envelope of a rejection.
type errorBody struct {
	Error apiError `json:"error"`
	// Trace is the rejected request's attempt timeline, present only when
	// the request set "trace": true.
	Trace *Timeline `json:"trace,omitempty"`
}

// The typed rejection vocabulary.
const (
	codeInvalid     = "invalid_request" // 400: malformed or out-of-limits request
	codeRateLimited = "rate_limited"    // 429: admission token bucket empty
	codeQueueFull   = "queue_full"      // 503: bounded work queue shed the load
	codeDraining    = "draining"        // 503: graceful shutdown stopped admission
	codeDeadline    = "deadline"        // 504: per-request deadline expired
	codeInternal    = "internal"        // 500: retries exhausted on repeated panics
	codeTooLarge    = "body_too_large"  // 413: request body exceeds the configured bound
	codeQuarantined = "row_quarantined" // 500: configuration tripped the per-key circuit breaker
	codeNotFound    = "not_found"       // 404: unknown batch job id
)

// inherited reports whether the rejection describes the request that led a
// single flight rather than the key it computed: admission (rate_limited,
// queue_full), that request's own deadline, or the drain. A batch row that
// follows such a flight retries it instead of recording the outcome.
func (e *apiError) inherited() bool {
	switch e.Code {
	case codeRateLimited, codeQueueFull, codeDeadline, codeDraining:
		return true
	}
	return false
}

func errInvalid(msg string) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: codeInvalid, Message: msg}
}

func errRateLimited() *apiError {
	return &apiError{Status: http.StatusTooManyRequests, Code: codeRateLimited,
		Message: "admission budget exhausted; retry with backoff"}
}

func errQueueFull() *apiError {
	return &apiError{Status: http.StatusServiceUnavailable, Code: codeQueueFull,
		Message: "work queue full; load shed"}
}

func errDraining() *apiError {
	return &apiError{Status: http.StatusServiceUnavailable, Code: codeDraining,
		Message: "server draining; not admitting new requests"}
}

func errDeadline() *apiError {
	return &apiError{Status: http.StatusGatewayTimeout, Code: codeDeadline,
		Message: "request deadline expired"}
}

func errInternal(msg string) *apiError {
	return &apiError{Status: http.StatusInternalServerError, Code: codeInternal, Message: msg}
}

func errTooLarge(limit int64) *apiError {
	return &apiError{Status: http.StatusRequestEntityTooLarge, Code: codeTooLarge,
		Message: fmt.Sprintf("request body exceeds %d bytes", limit)}
}

func errQuarantined(panics int) *apiError {
	return &apiError{Status: http.StatusInternalServerError, Code: codeQuarantined,
		Message: fmt.Sprintf("configuration quarantined after panicking on %d distinct engines", panics)}
}

func errNotFound(what string) *apiError {
	return &apiError{Status: http.StatusNotFound, Code: codeNotFound, Message: what}
}
