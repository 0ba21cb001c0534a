package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/market"
	"pds2/internal/policy"
	"pds2/internal/telemetry"
)

// listLogComponent is the log component the list fixture writes to;
// the /v1/logs row filters on it so other components' records never
// enter its sequence.
const listLogComponent = "listtest"

// listNode is a node whose five list routes each hold a few entries,
// with one way per route to append another.
type listNode struct {
	url    string
	m      *market.Market
	user   *identity.Identity
	cons   *market.Consumer
	dataID crypto.Digest // the dataset whose decision log grows
	n      int           // entries appended so far, for unique names
}

func newListNode(t *testing.T) *listNode {
	t.Helper()
	telemetry.DefaultLog().Reset()
	telemetry.DefaultLog().SetLevel(listLogComponent, telemetry.LevelInfo)
	t.Cleanup(func() { telemetry.DefaultLog().SetLevel(listLogComponent, telemetry.LevelOff) })
	srv, m, user := testServer(t, false)
	cons, err := market.NewConsumer(m, user)
	if err != nil {
		t.Fatal(err)
	}
	nd := &listNode{url: srv.URL, m: m, user: user, cons: cons, dataID: crypto.HashString("list/policy")}
	nd.send(t, market.RegisterDataData(nd.dataID, crypto.HashString("meta")))
	nd.send(t, market.SetPolicyData(nd.dataID, &policy.Policy{AllowedClasses: []string{"train"}}))
	for i := 0; i < 3; i++ {
		nd.addDataset(t)
		nd.addDecision(t)
		nd.addWorkload(t)
		nd.addLog(t)
	}
	return nd
}

func (nd *listNode) send(t *testing.T, data []byte) {
	t.Helper()
	if _, err := market.MustSucceed(nd.m.SendAndSeal(nd.user, nd.m.Registry, 0, data)); err != nil {
		t.Fatal(err)
	}
}

func (nd *listNode) addDataset(t *testing.T) {
	nd.n++
	nd.send(t, market.RegisterDataData(crypto.HashString(fmt.Sprintf("list/data/%d", nd.n)), crypto.HashString("meta")))
}

// addDecision appends one match-layer decision, which also appends its
// event to /v1/events.
func (nd *listNode) addDecision(t *testing.T) {
	t.Helper()
	nd.n++
	if _, err := nd.m.SendAndSeal(nd.user, nd.m.Registry, 0,
		market.EnforcePolicyData(policy.LayerMatch, "train", "", 1, nd.dataID)); err != nil {
		t.Fatal(err)
	}
}

func (nd *listNode) addWorkload(t *testing.T) {
	t.Helper()
	nd.n++
	params := market.TrainerParams{Dim: 4, Epochs: 1, Lambda: 1e-3}
	spec := &market.Spec{
		Predicate:      `category isa "sensor"`,
		MinProviders:   1,
		MinItems:       1,
		ExpiryHeight:   nd.m.Height() + 1000 + uint64(nd.n),
		ExecutorFeeBps: 500,
		Measurement:    market.TrainerMeasurement(params.Encode()),
		QAPub:          nd.m.QA.PublicKey(),
		Params:         params.Encode(),
	}
	if _, err := nd.cons.SubmitWorkload(spec, 1_000); err != nil {
		t.Fatal(err)
	}
}

func (nd *listNode) addLog(*testing.T) {
	nd.n++
	telemetry.L(listLogComponent).Info("entry", telemetry.Int("n", nd.n))
}

// listRoute is one row of the list contract: a paginated GET route, the
// fixed query selecting the fixture's sequence, the JSON field holding a
// page's entries, the route's cursor rule, and how to grow it.
type listRoute struct {
	path   string
	query  string
	field  string
	offset bool                         // offset cursor; false: last-served key
	key    func(json.RawMessage) string // sort key of an entry (key routes)
	add    func(*listNode, *testing.T)
}

// jsonKey returns a key function reading one string field of an entry.
func jsonKey(field string) func(json.RawMessage) string {
	return func(raw json.RawMessage) string {
		var m map[string]json.RawMessage
		if json.Unmarshal(raw, &m) != nil {
			return ""
		}
		var s string
		json.Unmarshal(m[field], &s)
		return s
	}
}

// logKey is a log record's Seq, its cursor key.
func logKey(raw json.RawMessage) string {
	var e telemetry.LogEvent
	json.Unmarshal(raw, &e)
	return strconv.FormatUint(e.Seq, 10)
}

// keyLess orders cursor keys: fixed-width hex and unpadded decimal
// both sort by length, then lexically.
func keyLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

var listRoutes = []listRoute{
	{path: "/v1/events", field: "items", offset: true, add: (*listNode).addDecision},
	{path: "/v1/policies/decisions", field: "items", offset: true, add: (*listNode).addDecision},
	{path: "/v1/workloads", field: "items", key: jsonKey("address"), add: (*listNode).addWorkload},
	{path: "/v1/datasets", field: "items", key: jsonKey("id"), add: (*listNode).addDataset},
	{path: "/v1/logs", query: "component=" + listLogComponent, field: "events", key: logKey, add: (*listNode).addLog},
}

// listPage is one fetched page: status, raw body, entries and cursor.
type listPage struct {
	status int
	body   []byte
	items  []json.RawMessage
	next   string
}

func (nd *listNode) fetch(t *testing.T, rt listRoute, params string) listPage {
	t.Helper()
	url := nd.url + rt.path + "?" + rt.query
	if params != "" {
		if rt.query != "" {
			url += "&"
		}
		url += params
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	p := listPage{status: resp.StatusCode, body: body}
	if p.status != http.StatusOK {
		return p
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if err := json.Unmarshal(m[rt.field], &p.items); err != nil || p.items == nil {
		t.Fatalf("GET %s: %q is not an array in %s", url, rt.field, body)
	}
	if raw, ok := m["next"]; ok {
		json.Unmarshal(raw, &p.next)
		if p.next == "" {
			t.Fatalf("GET %s: empty next sent in %s", url, body)
		}
	}
	return p
}

// walk follows next cursors from the first page at the given limit
// (0: the server default), calling between after the first page.
func (nd *listNode) walk(t *testing.T, rt listRoute, limit int, between func(cursor string)) []json.RawMessage {
	t.Helper()
	want := limit
	lim := ""
	if limit > 0 {
		lim = "limit=" + strconv.Itoa(limit)
	} else {
		want = DefaultPageLimit
	}
	var all []json.RawMessage
	after := ""
	for pages := 0; ; pages++ {
		params := lim
		if after != "" {
			params += "&after=" + after
		}
		p := nd.fetch(t, rt, strings.TrimPrefix(params, "&"))
		if p.status != http.StatusOK {
			t.Fatalf("%s limit %d page %d: %d %s", rt.path, limit, pages, p.status, p.body)
		}
		if p.next != "" && len(p.items) != want {
			t.Fatalf("%s limit %d: non-final page %d has %d items", rt.path, limit, pages, len(p.items))
		}
		all = append(all, p.items...)
		if p.next == "" {
			return all
		}
		if pages == 0 && between != nil {
			between(p.next)
		}
		after = p.next
	}
}

func sameItems(a, b []json.RawMessage) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// wantError checks a 400 bad_request envelope with the exact message.
func wantError(t *testing.T, p listPage, what, msg string) {
	t.Helper()
	var e apiError
	if p.status != http.StatusBadRequest || json.Unmarshal(p.body, &e) != nil ||
		e.Error.Code != CodeBadRequest || e.Error.Message != msg {
		t.Fatalf("%s: %d %s, want 400 %q", what, p.status, p.body, msg)
	}
}

// TestListRoutesWalk is the list contract as a property over every
// paginated route: a walk at any limit sees every entry exactly once and
// in order, the last page carries no next, entries appended mid-walk
// appear once where the cursor rule puts them, and bad limits and
// cursors are rejected with the shared error texts.
func TestListRoutesWalk(t *testing.T) {
	nd := newListNode(t)
	for _, rt := range listRoutes {
		t.Run(strings.TrimPrefix(rt.path, "/v1/"), func(t *testing.T) {
			full := nd.fetch(t, rt, fmt.Sprintf("limit=%d", MaxPageLimit))
			n := len(full.items)
			if full.status != http.StatusOK || full.next != "" || n < 3 {
				t.Fatalf("full fetch: %d, %d items, next %q", full.status, n, full.next)
			}
			if rt.key != nil {
				for i := 1; i < n; i++ {
					if !keyLess(rt.key(full.items[i-1]), rt.key(full.items[i])) {
						t.Fatalf("entries %d and %d out of key order", i-1, i)
					}
				}
			}
			for _, limit := range []int{1, 2, 7, 0} {
				if got := nd.walk(t, rt, limit, nil); !sameItems(got, full.items) {
					t.Fatalf("limit %d: walk yielded %d entries, want the %d of the full fetch in order", limit, len(got), n)
				}
			}

			// A page that ends exactly at the end carries no next; one
			// entry short, the next page holds exactly the last entry.
			if p := nd.fetch(t, rt, fmt.Sprintf("limit=%d", n)); len(p.items) != n || p.next != "" {
				t.Fatalf("limit=%d: %d items, next %q", n, len(p.items), p.next)
			}
			short := nd.fetch(t, rt, fmt.Sprintf("limit=%d", n-1))
			if short.next == "" {
				t.Fatalf("limit=%d: no next", n-1)
			}
			if p := nd.fetch(t, rt, fmt.Sprintf("limit=%d&after=%s", n-1, short.next)); !sameItems(p.items, full.items[n-1:]) || p.next != "" {
				t.Fatalf("final page: %d items, next %q", len(p.items), p.next)
			}

			for _, lim := range []string{"0", "-1", "abc"} {
				wantError(t, nd.fetch(t, rt, "limit="+lim), "limit="+lim, fmt.Sprintf("bad limit %q", lim))
			}
			if rt.path != "/v1/workloads" && rt.path != "/v1/datasets" {
				for _, cur := range []string{"abc", "-1"} {
					wantError(t, nd.fetch(t, rt, "after="+cur), "after="+cur, fmt.Sprintf("bad cursor %q", cur))
				}
			}
			capped := nd.fetch(t, rt, "limit=9223372036854775807")
			if max := nd.fetch(t, rt, fmt.Sprintf("limit=%d", MaxPageLimit)); capped.status != http.StatusOK || !bytes.Equal(capped.body, max.body) {
				t.Fatalf("limit=MaxInt64: %d, body differs from limit=%d", capped.status, MaxPageLimit)
			}

			// Entries appended between pages: an offset walk sees them at
			// the end; a key walk sees a new key once if it sorts after
			// the cursor it was holding, and never otherwise.
			var cursor string
			got := nd.walk(t, rt, 2, func(next string) { cursor = next; rt.add(nd, t) })
			after := nd.fetch(t, rt, fmt.Sprintf("limit=%d", MaxPageLimit)).items
			if len(after) <= n {
				t.Fatal("append added no entry")
			}
			var want []json.RawMessage
			if rt.offset {
				if !sameItems(after[:n], full.items) {
					t.Fatal("append moved an existing entry")
				}
				want = after
			} else {
				old := make(map[string]bool, n)
				for _, it := range full.items {
					old[rt.key(it)] = true
				}
				// A key route's cursor is the key the first page ended on.
				last := rt.key(full.items[1])
				if last != cursor {
					t.Fatalf("cursor %q is not the last key served %q", cursor, last)
				}
				for _, it := range after {
					if k := rt.key(it); old[k] || keyLess(last, k) {
						want = append(want, it)
					}
				}
			}
			if !sameItems(got, want) {
				t.Fatalf("walk across an append yielded %d entries, want %d", len(got), len(want))
			}
		})
	}

	// The cap is real, not just accepted: a sequence longer than
	// MaxPageLimit is cut there.
	logs := listRoutes[len(listRoutes)-1]
	for i := 0; i < MaxPageLimit; i++ {
		nd.addLog(t)
	}
	if p := nd.fetch(t, logs, "limit=9223372036854775807"); len(p.items) != MaxPageLimit || p.next == "" {
		t.Fatalf("limit=MaxInt64 over %d+ records: %d items, next %q", MaxPageLimit, len(p.items), p.next)
	}
}

// TestListRoutesCovered fails when a GET route answers with a next
// cursor but has no row in listRoutes, so a new list route cannot skip
// the walk property.
func TestListRoutesCovered(t *testing.T) {
	nd := newListNode(t)
	telemetry.Default().Reset()
	telemetry.Enable()
	defer telemetry.Disable()
	rows := make(map[string]bool, len(listRoutes))
	for _, rt := range listRoutes {
		rows[rt.path] = true
	}
	for _, info := range NewServer(nd.m, false).Routes() {
		delete(rows, info.Path)
		if info.Method != http.MethodGet || strings.Contains(info.Path, "{") {
			continue
		}
		resp, err := http.Get(nd.url + info.Path + "?limit=1")
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]json.RawMessage
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if _, paged := body["next"]; paged && !listRouteRow(info.Path) {
			t.Errorf("GET %s pages (it sent next) but has no listRoutes row", info.Path)
		}
	}
	for path := range rows {
		t.Errorf("listRoutes row %s is not a route", path)
	}
}

func listRouteRow(path string) bool {
	for _, rt := range listRoutes {
		if rt.path == path {
			return true
		}
	}
	return false
}

// TestWalkRejectsRepeatedCursor pins the client walkers against a server
// that answers a cursor with the same cursor: each walk must fail after
// the second page instead of looping.
func TestWalkRejectsRepeatedCursor(t *testing.T) {
	var hits atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"items":[],"components":[],"events":[],"next":"7"}`)
	}))
	defer stub.Close()
	c := NewClient(stub.URL, WithRetryPolicy(NoRetry))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	walks := map[string]func() error{
		"Events":          func() error { _, err := c.Events(ctx, ""); return err },
		"Workloads":       func() error { _, err := c.Workloads(ctx); return err },
		"Datasets":        func() error { _, err := c.Datasets(ctx); return err },
		"PolicyDecisions": func() error { _, err := c.PolicyDecisions(ctx); return err },
		"Logs":            func() error { _, err := c.Logs(ctx, ""); return err },
	}
	for name, walk := range walks {
		hits.Store(0)
		err := walk()
		if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), `repeated cursor "7"`) {
			t.Fatalf("%s: err %v, want a repeated-cursor error", name, err)
		}
		if n := hits.Load(); n != 2 {
			t.Fatalf("%s: %d requests, want 2", name, n)
		}
	}
}
