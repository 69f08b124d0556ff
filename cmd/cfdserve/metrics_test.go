package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newObsServer builds a server like newTestServer but keeps the *server
// around so tests can reach the metrics registry and access-log plumbing.
func newObsServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	eng, err := loadEngine(context.Background(), config{
		rulesPath: "testdata/rules.txt",
		dataPath:  "testdata/cust.csv",
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(eng, nil, config{support: 2, maxLHS: 2, log: testLog(io.Discard, "")})
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestEveryRouteEmitsMetricsAndRequestID walks the whole route table: each
// endpoint must answer with an X-Request-Id header and leave a
// cfd_http_requests_total series labeled with its route pattern behind.
func TestEveryRouteEmitsMetricsAndRequestID(t *testing.T) {
	s, ts := newObsServer(t)
	for _, rt := range s.routes() {
		path := strings.ReplaceAll(rt.pattern, "{id}", "0")
		if rt.pattern == "/violations/stream" {
			path += "?since=notanepoch" // 400 fast instead of an open stream
		}
		req, err := http.NewRequest(rt.method, ts.URL+"/v1"+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", rt.method, path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if id := resp.Header.Get("X-Request-Id"); !validRequestID(id) {
			t.Errorf("%s /v1%s: X-Request-Id = %q, want a generated id", rt.method, path, id)
		}
	}

	scrape := metricsBody(t, ts)
	for _, rt := range s.routes() {
		series := fmt.Sprintf(`cfd_http_requests_total{route=%q,method=%q,`, rt.pattern, rt.method)
		if !strings.Contains(scrape, series) {
			t.Errorf("no request counter for %s %s:\nscrape has %s", rt.method, rt.pattern,
				grepLines(scrape, "cfd_http_requests_total"))
		}
		durSeries := fmt.Sprintf(`cfd_http_request_duration_seconds_count{route=%q,method=%q}`, rt.pattern, rt.method)
		if !strings.Contains(scrape, durSeries) {
			t.Errorf("no duration histogram for %s %s", rt.method, rt.pattern)
		}
	}
	// The scrape endpoint must not instrument itself.
	if strings.Contains(scrape, `route="/metrics"`) {
		t.Error("/metrics appears in its own request counters")
	}
}

func metricsBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("GET /metrics: Content-Type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestMetricsCoverAllLayers asserts one scrape exposes engine, WAL, HTTP and
// discovery families side by side (the WAL series via a durable server).
func TestMetricsCoverAllLayers(t *testing.T) {
	sv, err := buildServing(context.Background(), config{
		rulesPath: "testdata/rules.txt",
		dataPath:  "testdata/cust.csv",
		statePath: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sv.close() })
	s := newServer(sv.eng, sv.store, config{compactEvery: 4096, log: testLog(io.Discard, "")})
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)

	do(t, "POST", ts.URL+"/v1/tuples",
		map[string]any{"values": []string{"01", "212", "5555555", "Ann", "5th Ave", "NYC", "01202"}},
		http.StatusOK)

	scrape := metricsBody(t, ts)
	for _, series := range []string{
		`cfd_engine_commits_total{kind="insert"} 1`,
		"cfd_engine_epoch",
		"cfd_engine_tuples 9",
		"cfd_engine_delta_ring_capacity",
		`cfd_wal_appends_total{result="ok"} 1`,
		"cfd_wal_pending_ops 1",
		`cfd_http_requests_total{route="/tuples",method="POST",code="2xx"} 1`,
		"cfd_http_in_flight_requests 0",
		"cfd_http_sse_subscribers 0",
		"cfd_remine_duration_seconds_count 0",
		"cfd_discovery_rules_streamed_total 0",
		"cfd_go_heap_inuse_bytes",
		"cfd_go_goroutines",
	} {
		if !strings.Contains(scrape, series) {
			t.Errorf("scrape missing %q:\n%s", series, grepLines(scrape, strings.SplitN(series, "{", 2)[0]))
		}
	}
	if !strings.HasSuffix(scrape, "# EOF\n") {
		t.Error("scrape missing the OpenMetrics EOF trailer")
	}
}

// TestReportEncodeBytes pins the split cfd_report_encode_bytes_total keeps of
// a node's full reads, in counts, so it gates on any machine: the first full
// read encodes every id list; the same report read again copies exactly
// those bytes and encodes none; a paged read takes the plain encoder and
// counts nothing.
func TestReportEncodeBytes(t *testing.T) {
	s, ts := newObsServer(t)
	reused, encoded := s.obs.reportBytes.With("reused"), s.obs.reportBytes.With("encoded")
	getRaw(t, ts.URL+"/v1/violations")
	first := encoded.Value()
	if reused.Value() != 0 || first == 0 {
		t.Fatalf("the first full read: %d bytes reused, %d encoded", reused.Value(), first)
	}
	getRaw(t, ts.URL+"/v1/violations")
	getRaw(t, ts.URL+"/v1/violations?limit=1")
	if reused.Value() != first || encoded.Value() != first {
		t.Errorf("the same report again: %d bytes reused, %d encoded in all; want %d and %d", reused.Value(), encoded.Value(), first, first)
	}
	for _, series := range []string{
		fmt.Sprintf(`cfd_report_encode_bytes_total{source="reused"} %d`, first),
		fmt.Sprintf(`cfd_report_encode_bytes_total{source="encoded"} %d`, first),
	} {
		if scrape := metricsBody(t, ts); !strings.Contains(scrape, series) {
			t.Errorf("scrape missing %q:\n%s", series, grepLines(scrape, "cfd_report_encode_bytes_total"))
		}
	}
}

// TestRequestIDPropagation pins the client-facing id contract: a
// well-formed client id is adopted and echoed, a malformed one replaced,
// and error envelopes carry the id for log correlation.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := newObsServer(t)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/health", nil)
	req.Header.Set("X-Request-Id", "client-id.42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-id.42" {
		t.Errorf("valid client id not echoed: got %q", got)
	}

	req, _ = http.NewRequest("GET", ts.URL+"/v1/health", nil)
	req.Header.Set("X-Request-Id", "spaces and punctuation!")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got == "spaces and punctuation!" || !validRequestID(got) {
		t.Errorf("malformed client id must be replaced, got %q", got)
	}

	// Error envelopes carry the same id.
	req, _ = http.NewRequest("GET", ts.URL+"/v1/tuples/999999", nil)
	req.Header.Set("X-Request-Id", "err-trace-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	var envelope struct {
		Error map[string]string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error["request_id"] != "err-trace-1" {
		t.Errorf("error envelope request_id = %q, want err-trace-1", envelope.Error["request_id"])
	}
}

// TestAccessLog pins the structured access log: one line per request, with
// the request id, route and status attached.
func TestAccessLog(t *testing.T) {
	eng, err := loadEngine(context.Background(), config{
		rulesPath: "testdata/rules.txt",
		dataPath:  "testdata/cust.csv",
	})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf strings.Builder
	s := newServer(eng, nil, config{log: testLog(&logBuf, "json")})
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/health", nil)
	req.Header.Set("X-Request-Id", "log-line-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var rec map[string]any
	if err := json.Unmarshal([]byte(logBuf.String()), &rec); err != nil {
		t.Fatalf("access log line is not JSON: %v\n%s", err, logBuf.String())
	}
	if rec["msg"] != "request" || rec["request_id"] != "log-line-1" ||
		rec["route"] != "/health" || rec["method"] != "GET" || rec["status"] != float64(200) {
		t.Errorf("unexpected access log record: %v", rec)
	}
}

// TestHealthObservability pins the enriched health payload: in-flight state
// booleans and the delta-ring block.
func TestHealthObservability(t *testing.T) {
	_, ts := newObsServer(t)
	h := do(t, "GET", ts.URL+"/v1/health", nil, http.StatusOK)
	if h["compacting"] != false {
		t.Errorf("compacting = %v, want false", h["compacting"])
	}
	if h["remine_running"] != false {
		t.Errorf("remine_running = %v, want false", h["remine_running"])
	}
	ring, ok := h["delta_ring"].(map[string]any)
	if !ok {
		t.Fatalf("delta_ring missing or not an object: %v", h["delta_ring"])
	}
	for _, k := range []string{"occupancy", "capacity", "evictions", "compacted_reads", "waiters"} {
		if _, ok := ring[k]; !ok {
			t.Errorf("delta_ring missing %q: %v", k, ring)
		}
	}
	if ring["capacity"] != 1024.0 {
		t.Errorf("delta_ring capacity = %v, want the fixed 1024", ring["capacity"])
	}
	if _, ok := h["last_compaction_error"]; ok {
		t.Error("memory-only server must not report last_compaction_error")
	}
}
