package api

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"pds2/internal/ledger"
	"pds2/internal/telemetry"
)

// The list contract. Five GET routes page through a sequence:
// /v1/events, /v1/policies/decisions, /v1/workloads, /v1/datasets and
// /v1/logs. A page is requested with ?after=<cursor>&limit=<n> and
// answered as a Page (logs carry the same two fields beside the log's
// component list, as "events" and "next"); next is absent on the last
// page. A cursor follows one of two rules, fixed by how the sequence
// grows:
//
//   - offset (events, decisions): the sequence is append-only, so the
//     count of entries already served is a stable cursor; entries
//     appended between pages show up at the end of the walk.
//   - key (workloads and datasets by hex, logs by Seq): the sequence is
//     sorted by a unique key, and the cursor is the last key served; an
//     entry inserted between pages is seen once if its key sorts after
//     the cursor, and never otherwise.

// DefaultPageLimit bounds list endpoints when the caller sends no
// ?limit; explicit limits are capped at MaxPageLimit.
const (
	DefaultPageLimit = 256
	MaxPageLimit     = 1024
)

// Page is one page of a list route: its entries, and the cursor for the
// following page, empty on the last one.
type Page[T any] struct {
	Items []T    `json:"items"`
	Next  string `json:"next,omitempty"`
}

// The list routes' pages.
type (
	EventsResponse          = Page[ledger.Event]
	WorkloadsResponse       = Page[WorkloadSummary]
	DatasetsResponse        = Page[DatasetSummary]
	PolicyDecisionsResponse = Page[PolicyDecision]
)

// LogsResponse is the GET /v1/logs page: the Page fields as events and
// next, beside every registered log component. Next is a LogEvent.Seq.
type LogsResponse struct {
	Components []string             `json:"components"`
	Events     []telemetry.LogEvent `json:"events"`
	Next       string               `json:"next,omitempty"`
}

// listParams parses a list request's ?limit, then its ?after cursor with
// cursor; an absent cursor is K's zero value, which sorts before every
// entry. On a bad value it has written the 400 and returns false.
func listParams[K any](w http.ResponseWriter, r *http.Request, cursor func(string) (K, error)) (after K, limit int, ok bool) {
	q := r.URL.Query()
	limit = DefaultPageLimit
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad limit %q", raw)
			return after, 0, false
		}
		limit = min(n, MaxPageLimit)
	}
	if raw := q.Get("after"); raw != "" {
		var err error
		if after, err = cursor(raw); err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad cursor %q", raw)
			return after, 0, false
		}
	}
	return after, limit, true
}

// offsetCursor reads an offset cursor: a count of entries served.
func offsetCursor(raw string) (int, error) {
	n, err := strconv.Atoi(raw)
	if err == nil && n < 0 {
		err = fmt.Errorf("negative offset")
	}
	return n, err
}

// seqCursor reads a log Seq cursor.
func seqCursor(raw string) (uint64, error) { return strconv.ParseUint(raw, 10, 64) }

// keyCursor reads a hex key cursor, which needs no parsing: any string
// orders against the keys.
func keyCursor(raw string) (string, error) { return raw, nil }

// offsetPage cuts the page starting at offset out of an append-only
// sequence. An offset at or past the end is an empty last page, so a
// client holding a stale cursor never crash-loops on a 4xx.
func offsetPage[T any](all []T, offset, limit int) Page[T] {
	p := Page[T]{Items: all[min(offset, len(all)):]}
	if len(p.Items) > limit {
		p.Items, p.Next = p.Items[:limit], strconv.Itoa(offset+limit)
	}
	if p.Items == nil {
		p.Items = []T{}
	}
	return p
}

// keyPage cuts the page following the cursor key out of src, which is
// sorted by key. item builds an entry; ok=false skips it (it vanished or
// failed to load). The page is cut as soon as an entry beyond limit
// exists, whether or not it would load.
func keyPage[S any, K cmp.Ordered, T any](src []S, key func(S) K, after K, limit int, item func(S) (T, bool)) Page[T] {
	p := Page[T]{Items: []T{}}
	var last K
	for _, e := range src {
		k := key(e)
		if k <= after {
			continue
		}
		if len(p.Items) == limit {
			p.Next = fmt.Sprint(last)
			break
		}
		if it, ok := item(e); ok {
			p.Items, last = append(p.Items, it), k
		}
	}
	return p
}

// LogPage is one /v1/logs page of the process log ring: the records of
// component ("" for every component) whose Seq follows after, oldest
// first, up to limit. Seq numbers survive ring eviction, so a page
// after seq N starts at the oldest retained record above N.
func LogPage(component string, after uint64, limit int) LogsResponse {
	l := telemetry.DefaultLog()
	events := l.Events()
	if component != "" {
		events = slices.DeleteFunc(events, func(e telemetry.LogEvent) bool { return e.Component != component })
	}
	p := keyPage(events, func(e telemetry.LogEvent) uint64 { return e.Seq }, after, limit,
		func(e telemetry.LogEvent) (telemetry.LogEvent, bool) { return e, true })
	return LogsResponse{Components: l.Components(), Events: p.Items, Next: p.Next}
}

// walk concatenates every page of a list, following next cursors from
// the first page. A server that answers a cursor with the same cursor
// would keep the walk going forever; that is an error.
func walk[T any](path string, page func(after string) (Page[T], error)) ([]T, error) {
	all := []T{}
	for after := ""; ; {
		p, err := page(after)
		if err != nil {
			return nil, err
		}
		all = append(all, p.Items...)
		if p.Next == "" {
			return all, nil
		}
		if p.Next == after {
			return nil, fmt.Errorf("api: GET %s: server repeated cursor %q", path, after)
		}
		after = p.Next
	}
}

// getPage fetches one page of a list route: the filters, then the after
// cursor and limit (<= 0 selects the server default).
func getPage[P any](ctx context.Context, c *Client, path, after string, limit int, filters ...[2]string) (P, error) {
	lim := ""
	if limit > 0 {
		lim = strconv.Itoa(limit)
	}
	return fetch[P](ctx, c, listPath(path, append(filters, [2]string{"after", after}, [2]string{"limit", lim})...))
}
