package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/rules"
	"repro/violation"
)

// servingMode is one of the two serving modes the shared /v1 handlers run
// behind, reachable both ways: over HTTP, and as the backend the handlers
// themselves call.
type servingMode struct {
	name string
	url  string
	b    backend
}

// servingModes boots both: a node over the testdata fixtures, and a
// coordinator over three httptest shard nodes holding the same eight cust
// tuples under the cluster fixture rules.
func servingModes(t *testing.T) []servingMode {
	t.Helper()
	urls := make([]string, 3)
	for i := range urls {
		urls[i] = newShardNode(t, clusterRules).URL
	}
	cs, coord := newCoord(t, urls)
	f, err := os.Open("testdata/cust.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	do(t, "POST", coord.URL+"/v1/tuples", map[string]any{"rows": rows[1:]}, http.StatusOK)
	node, nodeTS := newObsServer(t)
	return []servingMode{{"node", nodeTS.URL, node}, {"coordinator", coord.URL, coordBackend{cs.cl}}}
}

// modes are the serving modes by base URL. Whatever a test pins through this
// table holds in both.
func modes(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, m := range servingModes(t) {
		out[m.name] = m.url
	}
	return out
}

// doubtLog is a commit log that fails every commit in doubt, the way a store
// does whose record reached the log whole and could not be cut off again.
type doubtLog struct{}

func (doubtLog) Append([]violation.Op) error {
	return fmt.Errorf("%w: injected", violation.ErrInDoubt)
}

func (doubtLog) AppendRules(*rules.Set) error {
	return fmt.Errorf("%w: injected", violation.ErrInDoubt)
}

// inDoubtModes are the serving modes over a node whose every commit fails in
// doubt: that node itself, and a coordinator with it as its one shard.
func inDoubtModes(t *testing.T) map[string]string {
	t.Helper()
	eng, err := loadEngine(context.Background(), config{rulesPath: rulesFile(t, clusterRules), schema: clusterSchema})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachWAL(doubtLog{})
	node := httptest.NewServer(newServer(eng, nil, config{log: testLog(io.Discard, "")}).handler())
	t.Cleanup(node.Close)
	_, coord := newCoord(t, []string{node.URL})
	return map[string]string{"node": node.URL, "coordinator": coord.URL}
}

// sortedRoutes renders a route table as sorted "METHOD /v1/path" lines.
func sortedRoutes(routes []route) string {
	out := make([]string, len(routes))
	for i, rt := range routes {
		out[i] = rt.method + " /v1" + rt.pattern
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestRouteParity pins the /v1 API surface: every route is served under /v1
// and nowhere else (the unversioned path is the mux's plain 404), API.md
// documents exactly the node's routes — no more, no fewer — and its
// coordinator table exactly the coordinator's.
func TestRouteParity(t *testing.T) {
	ts := newTestServer(t)
	s := &server{} // routes() is pure; only the handler fields differ

	probe := func(method, path string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	for _, rt := range s.routes() {
		path := strings.ReplaceAll(rt.pattern, "{id}", "0")
		if rt.pattern == "/violations/stream" {
			continue // long-lived; covered by TestViolationStream
		}
		// Routed: the mux's own not-found/method-not-allowed answers are
		// text/plain, every real handler speaks JSON.
		if ct := probe(rt.method, "/v1"+path).Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("%s /v1%s: content type %q, want JSON (unrouted?)", rt.method, path, ct)
		}
		bare := probe(rt.method, path)
		if ct := bare.Header.Get("Content-Type"); bare.StatusCode != http.StatusNotFound || strings.Contains(ct, "json") {
			t.Errorf("%s %s: status %d (%s), want the mux's plain 404 — there are no unversioned aliases", rt.method, path, bare.StatusCode, ct)
		}
	}

	// API.md lists exactly the served routes, as "### METHOD /v1/path" ...
	data, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []route
	for _, h := range regexp.MustCompile(`(?m)^### (GET|PUT|POST|DELETE) /v1(\S*)$`).FindAllStringSubmatch(string(data), -1) {
		documented = append(documented, route{method: h[1], pattern: h[2]})
	}
	if doc, served := sortedRoutes(documented), sortedRoutes(s.routes()); doc != served {
		t.Errorf("API.md and the route table disagree\ndocumented:\n%s\nserved:\n%s", doc, served)
	}

	// ... and the coordinator's subset in the first column of the table under
	// "## Coordinator mode".
	_, section, _ := strings.Cut(string(data), "\n## Coordinator mode\n")
	section, _, _ = strings.Cut(section, "\n## ")
	documented = nil
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 && cells[0] == "" {
			for _, m := range regexp.MustCompile("`(GET|PUT|POST|DELETE) /v1([^`]*)`").FindAllStringSubmatch(cells[1], -1) {
				documented = append(documented, route{method: m[1], pattern: m[2]})
			}
		}
	}
	if doc, served := sortedRoutes(documented), sortedRoutes((&coordServer{}).routes()); doc != served {
		t.Errorf("API.md's coordinator table and the coordinator's routes disagree\ndocumented:\n%s\nserved:\n%s", doc, served)
	}
}

// TestErrorEnvelope drives every error path through the API, in both serving
// modes, and asserts the uniform {"error":{"code","message"}} envelope with
// the pinned status and code. A commit in doubt is driven through a node whose
// commit log fails every commit so, and a coordinator over it.
func TestErrorEnvelope(t *testing.T) {
	bases, doubtful := modes(t), inDoubtModes(t)
	oversize := strings.Repeat("#", maxBody+1)
	nested := nestedRuleset()
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		header     [2]string
		wantStatus int
		wantCode   string
		// coordCode is the coordinator's code where it differs: it serves no
		// deltas (400 bad_request whatever the epoch), and any shard's 5xx is
		// its 503 unavailable.
		coordCode string
	}{
		{"tuple-unknown-id", "GET", "/v1/tuples/4242", "", [2]string{}, 404, "not_found", ""},
		{"tuple-violations-unknown-id", "GET", "/v1/tuples/4242/violations", "", [2]string{}, 404, "not_found", ""},
		{"tuple-bad-id", "GET", "/v1/tuples/abc", "", [2]string{}, 400, "bad_request", ""},
		{"delete-unknown-id", "DELETE", "/v1/tuples/4242", "", [2]string{}, 404, "not_found", ""},
		{"insert-undecodable", "POST", "/v1/tuples", "{not json", [2]string{}, 400, "bad_request", ""},
		{"insert-empty", "POST", "/v1/tuples", `{}`, [2]string{}, 400, "bad_request", ""},
		{"insert-bad-arity", "POST", "/v1/tuples", `{"values":["too","short"]}`, [2]string{}, 422, "unprocessable", ""},
		{"update-bad-arity", "PUT", "/v1/tuples/0", `{"values":["too","short"]}`, [2]string{}, 422, "unprocessable", ""},
		{"batch-unknown-op", "POST", "/v1/batch", `{"ops":[{"op":"frobnicate"}]}`, [2]string{}, 422, "unprocessable", ""},
		{"batch-empty", "POST", "/v1/batch", `{"ops":[]}`, [2]string{}, 400, "bad_request", ""},
		{"rules-unparsable", "PUT", "/v1/rules", "this is not a rule file", [2]string{}, 400, "bad_request", ""},
		{"rules-oversize", "PUT", "/v1/rules", oversize, [2]string{}, 413, "payload_too_large", ""},
		{"rules-nested-envelope", "PUT", "/v1/rules", nested, [2]string{}, 400, "bad_request", ""},
		{"insert-oversize", "POST", "/v1/tuples", oversize, [2]string{}, 413, "payload_too_large", ""},
		{"update-oversize", "PUT", "/v1/tuples/0", oversize, [2]string{}, 413, "payload_too_large", ""},
		{"batch-oversize", "POST", "/v1/batch", oversize, [2]string{}, 413, "payload_too_large", ""},
		{"batch-undecodable", "POST", "/v1/batch", `{"ops":[{"op":"delete"}]}`, [2]string{}, 400, "bad_request", ""},
		{"rules-unknown-attr", "PUT", "/v1/rules", "([BOGUS] -> CT, (_ || _))\n", [2]string{}, 422, "unprocessable", ""},
		{"rules-cas-miss", "PUT", "/v1/rules", "([CC,AC] -> CT, (_, _ || _))\n", [2]string{"If-Match", `"not-the-version"`}, 409, "conflict", ""},
		{"since-bad", "GET", "/v1/violations?since=abc", "", [2]string{}, 400, "bad_request", ""},
		{"since-ahead", "GET", "/v1/violations?since=999999", "", [2]string{}, 410, "compacted", "bad_request"},
		{"limit-bad", "GET", "/v1/violations?limit=0", "", [2]string{}, 400, "bad_request", ""},
		{"cursor-bad", "GET", "/v1/tuples?cursor=-1", "", [2]string{}, 400, "bad_request", ""},
		{"suspects-cursor-bad", "GET", "/v1/suspects?cursor=x", "", [2]string{}, 400, "bad_request", ""},
		{"insert-in-doubt", "POST", "/v1/tuples", `{"values":["44","131","1","Ben","High St.","EDI","EH4 1DT"]}`, [2]string{}, 503, "in_doubt", "unavailable"},
	}
	coordStatus := map[string]int{"bad_request": 400, "unavailable": 503}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bases := bases
			if tc.wantCode == codeInDoubt {
				bases = doubtful
			}
			for mode, base := range bases {
				wantStatus, wantCode := tc.wantStatus, tc.wantCode
				if tc.coordCode != "" && mode == "coordinator" {
					wantStatus, wantCode = coordStatus[tc.coordCode], tc.coordCode
				}
				req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				if tc.header[0] != "" {
					req.Header.Set(tc.header[0], tc.header[1])
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != wantStatus {
					t.Fatalf("%s: status %d, want %d", mode, resp.StatusCode, wantStatus)
				}
				var out struct {
					Error struct {
						Code    string `json:"code"`
						Message string `json:"message"`
					} `json:"error"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Fatalf("%s: decoding envelope: %v", mode, err)
				}
				if out.Error.Code != wantCode || out.Error.Message == "" {
					t.Fatalf("%s: envelope = %+v, want code %q and a message", mode, out.Error, wantCode)
				}
			}
		})
	}
}

// nestedRuleset is 1,000 "ruleset" envelopes around an empty rule set padded
// to 1 MiB: before envelopes stopped nesting, a PUT of it pinned a core for
// seconds and a gigabyte, then swapped in the empty set.
func nestedRuleset() string {
	return strings.Repeat(`{"ruleset":`, 1000) + `{"rules":[],"padding":"` + strings.Repeat("x", 1<<20) + `"}` + strings.Repeat("}", 1000)
}

// TestPutNestedRulesetRefused: in both modes the nested document is refused
// within a second, and the served rule set stays the one it was.
func TestPutNestedRulesetRefused(t *testing.T) {
	body := nestedRuleset()
	for mode, base := range modes(t) {
		version := do(t, "GET", base+"/v1/rules", nil, http.StatusOK)["version"]
		req, err := http.NewRequest("PUT", base+"/v1/rules", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if elapsed := time.Since(start); resp.StatusCode != http.StatusBadRequest || elapsed > time.Second {
			t.Errorf("%s: status %d after %v, want 400 within a second", mode, resp.StatusCode, elapsed)
		}
		if got := do(t, "GET", base+"/v1/rules", nil, http.StatusOK)["version"]; got != version {
			t.Errorf("%s: rules version moved from %v to %v", mode, version, got)
		}
	}
}

// TestWriteBodyIsItsFirstValue pins, in both serving modes, what a write
// handler reads of its body: the first JSON value, as json.Decoder has always
// read it — whatever follows is ignored, whether the batch body before it is
// one the one-pass reader takes or one it hands to encoding/json.
func TestWriteBodyIsItsFirstValue(t *testing.T) {
	row := `["01","212","9999999","Ann","5th Ave","NYC","01202"]`
	for mode, base := range modes(t) {
		for _, tc := range []struct{ method, path, body string }{
			{"POST", "/v1/batch", `{"ops":[{"op":"insert","values":` + row + `}]} trailing`},
			{"POST", "/v1/batch", `{"ops":[{"op":"insert","values":` + row + `}]}{"ops":[]}`},
			{"POST", "/v1/batch", ` { "OPS" : [ {"op":"insert", "values":` + row + `} ] } ]`},
			{"POST", "/v1/tuples", `{"values":` + row + `} trailing`},
			{"PUT", "/v1/tuples/0", `{"values":` + row + `}}`},
		} {
			req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: %s %s %s: status %d, want 200", mode, tc.method, tc.path, tc.body, resp.StatusCode)
			}
		}
		if got := do(t, "GET", base+"/v1/health", nil, http.StatusOK)["tuples"]; got != float64(8+4) {
			t.Errorf("%s: %v tuples after four inserts into eight", mode, got)
		}
	}
}

// TestPagination pins the deterministic cursor order of the three list
// endpoints, in both serving modes: walking pages with any limit reassembles
// exactly the unpaged response, in the same order. The largest limit, read
// from cursor 1, is the unpaged list minus its first entry with no next page.
func TestPagination(t *testing.T) {
	for mode, base := range modes(t) {
		hugeLimit := func(path, key string, unpaged []any) {
			t.Helper()
			page := do(t, "GET", base+path+"?cursor=1&limit=9223372036854775807", nil, http.StatusOK)
			if next, ok := page["next_cursor"]; ok {
				t.Fatalf("%s: %s with the largest limit has next_cursor %v", mode, path, next)
			}
			if got, want := fmt.Sprint(page[key]), fmt.Sprint(unpaged[1:]); got != want {
				t.Fatalf("%s: %s from cursor 1 with the largest limit = %s, want %s", mode, path, got, want)
			}
		}

		// /v1/tuples: ascending ids, id-based cursor.
		var ids []int
		url := base + "/v1/tuples?limit=3"
		for {
			page := do(t, "GET", url, nil, http.StatusOK)
			for _, raw := range page["tuples"].([]any) {
				ids = append(ids, int(raw.(map[string]any)["id"].(float64)))
			}
			next, ok := page["next_cursor"].(string)
			if !ok {
				break
			}
			url = base + "/v1/tuples?limit=3&cursor=" + next
		}
		if !sort.IntsAreSorted(ids) || len(ids) != 8 {
			t.Fatalf("%s: paged tuple ids = %v, want ids 0..7 ascending", mode, ids)
		}
		whole := do(t, "GET", base+"/v1/tuples", nil, http.StatusOK)
		if all := whole["tuples"].([]any); len(all) != len(ids) {
			t.Fatalf("%s: unpaged %d tuples, paged %d", mode, len(all), len(ids))
		}
		if whole["total"].(float64) != 8 {
			t.Fatalf("%s: total = %v, want 8", mode, whole["total"])
		}
		hugeLimit("/v1/tuples", "tuples", whole["tuples"].([]any))

		// /v1/violations (per-rule entries in rule order) and /v1/suspects
		// (ascending ids): offset cursors.
		for _, list := range []struct{ path, key, limit string }{{"/v1/violations", "violations", "1"}, {"/v1/suspects", "suspects", "2"}} {
			unpaged := do(t, "GET", base+list.path, nil, http.StatusOK)[list.key].([]any)
			var paged []any
			url = base + list.path + "?limit=" + list.limit
			for {
				page := do(t, "GET", url, nil, http.StatusOK)
				paged = append(paged, page[list.key].([]any)...)
				next, ok := page["next_cursor"].(string)
				if !ok {
					break
				}
				url = base + list.path + "?limit=" + list.limit + "&cursor=" + next
			}
			if fmt.Sprint(paged) != fmt.Sprint(unpaged) {
				t.Fatalf("%s: paged %s %v, unpaged %v", mode, list.key, paged, unpaged)
			}
			hugeLimit(list.path, list.key, unpaged)
		}
	}
}

// TestDeltaEndpoint covers the polling contract of GET /v1/violations?since=:
// an empty delta at the head, an exact delta across a mutation, and 410 once
// the epoch is out of range (TestStateRestart exercises the compacted-resync
// path across a real restart).
func TestDeltaEndpoint(t *testing.T) {
	ts := newTestServer(t)
	full := do(t, "GET", ts.URL+"/v1/violations", nil, http.StatusOK)
	epoch := int(full["epoch"].(float64))

	out := do(t, "GET", fmt.Sprintf("%s/v1/violations?since=%d", ts.URL, epoch), nil, http.StatusOK)
	delta := out["delta"].(map[string]any)
	if int(out["epoch"].(float64)) != epoch || len(delta["added"].([]any)) != 0 {
		t.Fatalf("delta at head = %v", out)
	}

	// A duplicate of tuple 7 joins Sean's violating FD group: the delta must
	// carry exactly the change, not the whole report.
	ins := do(t, "POST", ts.URL+"/v1/tuples", map[string]any{
		"values": []string{"01", "131", "2222222", "Sean", "3rd Str.", "EDI", "01202"},
	}, http.StatusOK)
	id := ints(t, ins["ids"])[0]
	out = do(t, "GET", fmt.Sprintf("%s/v1/violations?since=%d", ts.URL, epoch), nil, http.StatusOK)
	if int(out["epoch"].(float64)) != epoch+1 {
		t.Fatalf("delta epoch = %v, want %d", out["epoch"], epoch+1)
	}
	delta = out["delta"].(map[string]any)
	added := delta["added"].([]any)
	if len(added) == 0 {
		t.Fatalf("delta after a violating insert = %v", delta)
	}
	dirtyAdded := ints(t, delta["dirty_added"])
	found := false
	for _, d := range dirtyAdded {
		if d == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("dirty_added %v misses the inserted id %d", dirtyAdded, id)
	}
	if delta["rules"] != nil {
		t.Fatalf("rules = %v without a swap, want null", delta["rules"])
	}
}

// TestViolationStream exercises GET /v1/violations/stream end to end: SSE
// connect, the initial position event, ordered delta events across
// mutations, and a clean disconnect when the server shuts down.
func TestViolationStream(t *testing.T) {
	eng, err := loadEngine(context.Background(), config{rulesPath: "testdata/rules.txt", dataPath: "testdata/cust.csv"})
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(eng, nil, config{})
	shutdown, cancel := context.WithCancel(context.Background())
	h.baseCtx = shutdown
	ts := httptest.NewServer(h.handler())
	t.Cleanup(ts.Close)
	t.Cleanup(cancel)

	resp, err := http.Get(ts.URL + "/v1/violations/stream")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// events forwards each SSE event as "<event>\t<data>" and closes on EOF.
	type event struct{ name, data string }
	events := make(chan event, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var name, data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "" && name != "":
				events <- event{name, data}
				name, data = "", ""
			}
		}
	}()
	next := func() event {
		t.Helper()
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("stream closed early")
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatal("no event within 5s")
			panic("unreachable")
		}
	}

	ev := next()
	if ev.name != "epoch" {
		t.Fatalf("first event %q, want epoch", ev.name)
	}
	var pos struct{ Epoch uint64 }
	if err := json.Unmarshal([]byte(ev.data), &pos); err != nil {
		t.Fatal(err)
	}
	if pos.Epoch != eng.Epoch() {
		t.Fatalf("stream position %d, engine epoch %d", pos.Epoch, eng.Epoch())
	}

	// Two mutations; the stream may coalesce them, but epochs must arrive in
	// order and reach the engine's head.
	do(t, "POST", ts.URL+"/v1/tuples", map[string]any{
		"values": []string{"01", "131", "2222222", "Sean", "3rd Str.", "EDI", "01202"},
	}, http.StatusOK)
	last := pos.Epoch
	for last < pos.Epoch+1 {
		ev = next()
		if ev.name != "delta" {
			t.Fatalf("event %q, want delta", ev.name)
		}
		var d struct{ Epoch uint64 }
		if err := json.Unmarshal([]byte(ev.data), &d); err != nil {
			t.Fatal(err)
		}
		if d.Epoch <= last {
			t.Fatalf("delta epochs out of order: %d after %d", d.Epoch, last)
		}
		last = d.Epoch
	}
	do(t, "DELETE", fmt.Sprintf("%s/v1/tuples/%d", ts.URL, 8), nil, http.StatusOK)
	for last < pos.Epoch+2 {
		ev = next()
		var d struct{ Epoch uint64 }
		if ev.name != "delta" || json.Unmarshal([]byte(ev.data), &d) != nil || d.Epoch <= last {
			t.Fatalf("bad delta event %+v after epoch %d", ev, last)
		}
		last = d.Epoch
	}

	// Server shutdown must end the stream promptly (the events channel closes
	// on EOF), not leave the client hanging.
	cancel()
	select {
	case ev, ok := <-events:
		if ok {
			t.Fatalf("unexpected event %+v after shutdown", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not close at shutdown")
	}
}
