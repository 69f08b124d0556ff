package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/cluster"
)

// oldEncoding is how writeJSON encoded every reply before the bulk documents
// got their own encoders: encoding/json by the struct tags, two-space indent.
func oldEncoding(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reply performs one request and returns the response with its body read.
func reply(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestBulkRepliesKeepTheirBytes holds the handlers' bulk replies, in both
// serving modes, to the old encoding of the very documents the backend hands
// them: the report whole and paged, the ?since= delta, tuple pages, and the
// write replies. FuzzWireDocs (package cluster) covers the encoders value by
// value; this covers their wiring — that writeJSON picks them up for each
// route, after the handler's own paging, and adds nothing of its own.
func TestBulkRepliesKeepTheirBytes(t *testing.T) {
	ctx := context.Background()
	for _, m := range servingModes(t) {
		get := func(path string) []byte { t.Helper(); return getRaw(t, m.url+path) }
		same := func(what string, got []byte, doc any) {
			t.Helper()
			if want := oldEncoding(t, doc); !bytes.Equal(got, want) {
				t.Errorf("%s: %s changed on the wire\n got: %s\nwant: %s", m.name, what, got, want)
			}
		}

		// Write replies first, so the reads below see their effect. The reply
		// is decoded by the same struct tags and re-encoded the old way: a
		// field dropped, renamed, reordered or re-spaced breaks the identity.
		for _, w := range []struct{ path, body string }{
			{"/v1/batch", `{"ops":[{"op":"insert","values":["01","908","1111111","Mia","Tree Ave.","NYC","07974"]},{"op":"insert","values":["44","131","3333333","Ian","High St.","GLA","EH4 1DT"]},{"op":"delete","id":6}]}`},
			{"/v1/batch", `{"ops":[{"op":"delete","id":5}]}`},
			{"/v1/tuples", `{"rows":[["01","212","2222222","Joe","5th Ave","MH","01202"]]}`},
		} {
			body := clusterReq(t, "POST", m.url+w.path, w.body, "", http.StatusOK)
			var doc cluster.WriteDoc
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&doc); err != nil {
				t.Fatalf("%s: POST %s: reply does not decode as a WriteDoc: %v\n%s", m.name, w.path, err, body)
			}
			same("POST "+w.path+" reply", body, doc)
		}

		full, err := m.b.Violations(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Violations) < 2 || len(full.Dirty) == 0 {
			t.Fatalf("%s: the fixture report is too small to page: %+v", m.name, full)
		}
		if (m.name == "coordinator") != (len(full.Epochs) == 3) || (m.name == "node") != (full.Epoch != nil) {
			t.Fatalf("%s: report carries epoch %v, epochs %v", m.name, full.Epoch, full.Epochs)
		}
		same("the full report", get("/v1/violations"), full)
		for lo := 0; lo < len(full.Violations); lo++ {
			page := full
			page.Violations = full.Violations[lo : lo+1]
			if lo+1 < len(full.Violations) {
				page.NextCursor = strconv.Itoa(lo + 1)
			}
			same(fmt.Sprintf("report page %d", lo), get(fmt.Sprintf("/v1/violations?limit=1&cursor=%d", lo)), page)
		}
		// Past the end: an empty page, "violations": [] rather than null.
		page := full
		page.Violations = full.Violations[len(full.Violations):]
		same("the empty report page", get("/v1/violations?limit=1&cursor=99"), page)

		all, err := m.b.Tuples(ctx, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		same("the tuple listing", get("/v1/tuples"), all)
		for cursor := 0; ; {
			doc, err := m.b.Tuples(ctx, cursor, 3)
			if err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("the tuple page at %d", cursor), get(fmt.Sprintf("/v1/tuples?limit=3&cursor=%d", cursor)), doc)
			if doc.NextCursor == "" {
				break
			}
			if cursor, err = strconv.Atoi(doc.NextCursor); err != nil {
				t.Fatal(err)
			}
		}

		if m.name != "node" {
			continue // the coordinator serves no deltas
		}
		for _, since := range []uint64{*full.Epoch - 3, *full.Epoch - 1, *full.Epoch} {
			doc, err := m.b.Changes(ctx, since)
			if err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("the delta since %d", since), get(fmt.Sprintf("/v1/violations?since=%d", since)), doc)
		}
	}
}

// TestRepliesCarryContentLength: a reply is a buffer before it is a response,
// so its length is known — bulk replies used to go out chunked.
func TestRepliesCarryContentLength(t *testing.T) {
	for _, m := range servingModes(t) {
		// Enough tuples that the listing and the report outgrow any buffer
		// net/http would have measured on its own.
		rows := make([][]string, 400)
		for i := range rows {
			rows[i] = []string{"01", "908", fmt.Sprintf("%07d", i), "N", fmt.Sprintf("Str %d", i%7), "MH", "07974"}
		}
		do(t, "POST", m.url+"/v1/tuples", map[string]any{"rows": rows}, http.StatusOK)
		for _, c := range []struct {
			method, path, body string
			status             int
		}{
			{"GET", "/v1/violations", "", 200},
			{"GET", "/v1/tuples", "", 200},
			{"GET", "/v1/suspects", "", 200},
			{"GET", "/v1/rules", "", 200},
			{"GET", "/v1/health", "", 200},
			{"POST", "/v1/batch", `{"ops":[{"op":"delete","id":9}]}`, 200},
			{"GET", "/v1/tuples/424242", "", 404},
		} {
			resp, body := reply(t, c.method, m.url+c.path, c.body)
			if resp.StatusCode != c.status {
				t.Fatalf("%s: %s %s: status %d, want %d", m.name, c.method, c.path, resp.StatusCode, c.status)
			}
			if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) || len(resp.TransferEncoding) != 0 {
				t.Errorf("%s: %s %s: Content-Length %q, transfer encoding %v for a %d-byte body",
					m.name, c.method, c.path, got, resp.TransferEncoding, len(body))
			}
		}
		if _, body := reply(t, "GET", m.url+"/v1/violations", ""); len(body) < 8<<10 {
			t.Fatalf("%s: the report is only %d bytes; the test no longer proves anything about large replies", m.name, len(body))
		}
	}
}

// unencodable serves a health document encoding/json refuses (NaN has no JSON
// form) — what a rule's confidence is one division away from.
type unencodable struct{ backend }

func (unencodable) Health(context.Context) any {
	return cluster.HealthDoc{Status: "ok", RuleStats: []cluster.RuleStatDoc{{Rule: "r", Confidence: math.NaN()}}}
}

// TestUnencodableReplyIsA500 pins the order writeJSON works in: the body is
// built before the status line is sent, so a document that cannot be encoded
// answers the 500 envelope — it used to be a 200 with an empty body and the
// error dropped.
func TestUnencodableReplyIsA500(t *testing.T) {
	st := newObsStack(testLog(io.Discard, ""))
	ts := httptest.NewServer(st.mux(api{unencodable{}}.routes()))
	defer ts.Close()

	resp, body := reply(t, "GET", ts.URL+"/v1/health", "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %q", resp.StatusCode, body)
	}
	var env cluster.ErrorDoc
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("the 500 body is not the error envelope: %v\n%s", err, body)
	}
	if env.Error.Code != cluster.CodeInternal || !strings.Contains(env.Error.Message, "NaN") {
		t.Errorf("envelope = %+v, want code %q and a message naming the value", env.Error, cluster.CodeInternal)
	}
	if id := resp.Header.Get("X-Request-Id"); id == "" || env.Error.RequestID != id {
		t.Errorf("envelope request_id %q, X-Request-Id %q: want the same id", env.Error.RequestID, id)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Errorf("Content-Length %q for a %d-byte envelope", got, len(body))
	}
}

// The documents the handlers write by value must be the ones with encoders:
// a pointer receiver would silently send them back through reflection.
var _ = []bodyAppender{cluster.ViolationsDoc{}, cluster.ChangesDoc{}, cluster.TuplesDoc{}, cluster.WriteDoc{}}
