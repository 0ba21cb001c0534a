package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Stable machine-readable error codes. The client's retry loop keys off
// the code's retryability (carried explicitly in the envelope), never
// off raw status numbers, so codes must not change meaning across
// versions.
const (
	// CodeBadRequest: malformed input (bad hex, bad JSON, bad query).
	CodeBadRequest = "bad_request"

	// CodeNotFound: the route exists but the entity does not.
	CodeNotFound = "not_found"

	// CodeNoRoute: no handler for the path.
	CodeNoRoute = "no_route"

	// CodeMethodNotAllowed: the path exists under another HTTP method.
	CodeMethodNotAllowed = "method_not_allowed"

	// CodeForbidden: the operation is disabled on this node.
	CodeForbidden = "forbidden"

	// CodeInvalidTx: the transaction failed stateless verification.
	CodeInvalidTx = "invalid_tx"

	// CodeViewReverted: the read-only contract call reverted.
	CodeViewReverted = "view_reverted"

	// CodeOverloaded: the node is shedding load (mempool saturated).
	// Retry after the Retry-After hint.
	CodeOverloaded = "overloaded"

	// CodeUnavailable: the node cannot serve right now (draining,
	// transient pressure). Retryable — possibly against another node.
	CodeUnavailable = "unavailable"

	// CodeDisabled: the subsystem is switched off by node configuration
	// (telemetry, metrics history, pprof). Deliberately NOT retryable:
	// unlike a draining node, a disabled feature does not come back on
	// its own, so a well-behaved client must stop asking instead of
	// burning its retry budget. No Retry-After hint is ever attached.
	CodeDisabled = "disabled"

	// CodeTooLarge: the request body exceeds MaxBodyBytes, or (set by
	// the client, never sent) the response body exceeds
	// MaxResponseBytes. Not retryable: the same body stays too large.
	CodeTooLarge = "too_large"

	// CodeTimeout: the per-request deadline expired server-side.
	CodeTimeout = "timeout"

	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"

	// CodeInjectedFault: a synthesized failure from the fault-injection
	// layer (chaos runs only).
	CodeInjectedFault = "injected_fault"

	// CodePolicyViolation: the dataset's usage-control policy denies the
	// requested use. Deliberately NOT retryable: the decision is a pure
	// function of the policy in force, so the same request will keep
	// failing until the owner relaxes the policy. The envelope's details
	// object names the violated clause and the enforcement layer.
	CodePolicyViolation = "policy_violation"
)

// retryableCode is the server-side truth table stamped into envelopes.
var retryableCode = map[string]bool{
	CodeOverloaded:    true,
	CodeUnavailable:   true,
	CodeTimeout:       true,
	CodeInternal:      true,
	CodeInjectedFault: true,
}

// ErrorDetails is the optional structured context of an error envelope.
// Policy denials fill it so a caller can act on the violated clause
// without parsing the human-readable message.
type ErrorDetails struct {
	// Clause names the violated policy clause (e.g. "allowed_classes").
	Clause string `json:"clause,omitempty"`
	// Layer is the enforcement layer that produced the decision: match,
	// admission or enclave.
	Layer string `json:"layer,omitempty"`
	// Code is the decision's stable reason code (e.g. "class_forbidden").
	Code string `json:"code,omitempty"`
}

// ErrorBody is the uniform machine-readable error payload.
type ErrorBody struct {
	Code      string        `json:"code"`
	Message   string        `json:"message"`
	Retryable bool          `json:"retryable"`
	Details   *ErrorDetails `json:"details,omitempty"`
}

// apiError is the uniform error envelope: {"error": {...}}.
type apiError struct {
	Error ErrorBody `json:"error"`
}

// APIError is the client-side view of a non-2xx response. It carries
// the envelope verbatim plus transport-level context, and implements
// error.
type APIError struct {
	Path       string
	Status     int
	Code       string
	Message    string
	Retryable  bool
	Details    *ErrorDetails // structured context, nil unless the server sent one
	RetryAfter time.Duration // parsed Retry-After hint, 0 if absent
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("api: %s: %s: %s (HTTP %d)", e.Path, e.Code, e.Message, e.Status)
}

// newAPIError builds an *APIError from a non-2xx response. Responses
// that do not carry the envelope (proxies, panics mid-write) degrade to
// a synthetic code "http_<status>", retryable for 5xx and 429.
func newAPIError(path string, status int, header http.Header, body []byte) *APIError {
	out := &APIError{
		Path:      path,
		Status:    status,
		Code:      "http_" + strconv.Itoa(status),
		Message:   http.StatusText(status),
		Retryable: status >= 500 || status == http.StatusTooManyRequests,
	}
	if ra := header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			out.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	var env apiError
	if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
		out.Code = env.Error.Code
		out.Message = env.Error.Message
		out.Retryable = env.Error.Retryable
		out.Details = env.Error.Details
	}
	return out
}
