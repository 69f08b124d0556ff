package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"repro/cluster"
	"repro/obs"
	"repro/rules"
	"repro/violation"
)

// backend is what the /v1 handlers serve from: the local engine and store on
// a node (*server), the shard fleet on a coordinator (coordBackend). The
// handlers own everything about HTTP — request decoding and validation,
// limit/cursor paging, ETags, body limits, the error envelope — and never
// ask which of the two they are talking to; a backend answers in the wire
// documents of cluster/docs.go, or with an error that fail maps.
type backend interface {
	// Health is the mode's GET /v1/health document; it does not fail.
	Health(ctx context.Context) any
	// Rules returns the served rule document. A backend that can tell
	// cheaply that the client already holds the served version (held reports
	// so) may return the Version alone.
	Rules(ctx context.Context, held func(version string) bool) (cluster.RulesDoc, error)
	// SwapRules replaces the rule set with set — body is the uploaded rule
	// file it was parsed from, which a coordinator forwards verbatim. A
	// non-empty ifMatch makes the swap conditional on serving one of those
	// versions.
	SwapRules(ctx context.Context, set *rules.Set, body []byte, ifMatch []string) (cluster.SwapDoc, error)
	// Violations returns the full, unpaged report.
	Violations(ctx context.Context) (cluster.ViolationsDoc, error)
	Changes(ctx context.Context, since uint64) (cluster.ChangesDoc, error)
	// Suspects returns every suspect id, ascending.
	Suspects(ctx context.Context) ([]int, error)
	// Tuples returns the page of up to limit (0 = all) live tuples from the
	// id cursor on.
	Tuples(ctx context.Context, cursor, limit int) (cluster.TuplesDoc, error)
	Insert(ctx context.Context, rows [][]string) (cluster.WriteDoc, error)
	Batch(ctx context.Context, ops []violation.Op) (cluster.WriteDoc, error)
	Get(ctx context.Context, id int) (cluster.TupleDoc, error)
	TupleViolations(ctx context.Context, id int) (cluster.TupleViolationsDoc, error)
}

// route is one API endpoint: the pattern is the path under the /v1 prefix.
type route struct {
	method  string
	pattern string // e.g. "/violations" or "/tuples/{id}"
	handler http.HandlerFunc
}

// api is the one implementation of the /v1 routes both serving modes share.
type api struct{ b backend }

// routes is the shared API surface and, for the coordinator, all of it; a
// node appends its node-only routes (server.routes). The route-parity test
// checks both tables against API.md.
func (a api) routes() []route {
	return []route{
		{"GET", "/health", a.health},
		{"GET", "/rules", a.rules},
		{"PUT", "/rules", a.putRules},
		{"GET", "/violations", a.violations},
		{"GET", "/suspects", a.suspects},
		{"GET", "/tuples", a.listTuples},
		{"POST", "/tuples", a.insert},
		{"POST", "/batch", a.batch},
		{"GET", "/tuples/{id}", a.tuple},
		{"GET", "/tuples/{id}/violations", a.tupleViolations},
		{"PUT", "/tuples/{id}", a.update},
		{"DELETE", "/tuples/{id}", a.remove},
	}
}

// mux serves a route table under /v1, each route behind the observability
// middleware. All bodies and responses are JSON (except the PUT rules request
// body, which is a rule file in either text or JSON form, and the violations
// stream, which is text/event-stream).
func (o *obsStack) mux(routes []route) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.method+" /v1"+rt.pattern, o.instrument(rt.method, rt.pattern, rt.handler))
	}
	// The scrape endpoint itself is outside the /v1 contract and outside the
	// instrument middleware: scrapes should not move the series they read.
	mux.Handle("GET /metrics", o.reg.Handler())
	return mux
}

// bodyAppender is a wire document with its own encoder: the bulk documents of
// cluster/docs.go, whose size makes reflection and json.Indent's second scan
// the cost of the request. Everything else goes through encoding/json.
type bodyAppender interface {
	AppendJSON(dst []byte) []byte
}

// encodeBody appends v as it goes on the wire: two-space-indented JSON and a
// trailing newline.
func encodeBody(dst []byte, v any) ([]byte, error) {
	if a, ok := v.(bodyAppender); ok {
		return a.AppendJSON(dst), nil
	}
	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// replyBufs recycles reply bodies between requests: the full violations
// report is over a megabyte, and it is read in a loop.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeJSON is the one reply writer. The body is encoded in full into a pooled
// buffer before the status line is sent, so a document that cannot be encoded
// answers the 500 envelope instead of the handler's status over a torn body,
// and every reply carries its Content-Length.
func writeJSON(w http.ResponseWriter, status int, v any) {
	bp := replyBufs.Get().(*[]byte)
	defer replyBufs.Put(bp)
	body, err := encodeBody((*bp)[:0], v)
	if err != nil {
		status = http.StatusInternalServerError
		// Strings only: this one encodes. The middleware has already put the
		// request id in the reply header.
		body, _ = encodeBody(body[:0], cluster.ErrorDoc{Error: cluster.ErrorBody{
			Code: cluster.CodeInternal, Message: "encoding the reply: " + err.Error(), RequestID: w.Header().Get("X-Request-Id"),
		}})
	}
	*bp = body
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means nobody is reading
}

func writeError(w http.ResponseWriter, r *http.Request, status int, code string, err error) {
	// The same id the middleware put in X-Request-Id, so an error report can
	// be matched to its access-log line.
	writeJSON(w, status, cluster.ErrorDoc{Error: cluster.ErrorBody{
		Code: code, Message: err.Error(), RequestID: obs.RequestID(r.Context()),
	}})
}

func badRequest(w http.ResponseWriter, r *http.Request, err error) {
	writeError(w, r, http.StatusBadRequest, cluster.CodeBadRequest, err)
}

// fail maps a backend error onto the envelope. The engine's sentinels and
// the cluster's errors carry their own meaning: an unknown id is 404, a lost
// rules CAS 409, an aged-out ?since= 410, a write-ahead log failure 500 — 503
// in_doubt for the one failed commit whose record a restart may replay; an
// unavailable shard is 503 (the partial-failure contract — the coordinator
// fails closed rather than answer partially) and a shard's or the
// coordinator's own API error passes through with its status and code. For
// anything else the handler says what the failure means on its route: 422 for
// a mutation (a well-formed request the engine rejected — arity mismatch,
// unknown op kind, invalid rule), 500 for a read.
func fail(w http.ResponseWriter, r *http.Request, err error, otherwise int) {
	var api *cluster.APIError
	switch {
	case errors.Is(err, violation.ErrNotFound):
		writeError(w, r, http.StatusNotFound, cluster.CodeNotFound, err)
	case errors.Is(err, violation.ErrRulesVersion):
		writeError(w, r, http.StatusConflict, cluster.CodeConflict, err)
	case errors.Is(err, violation.ErrCompacted):
		writeError(w, r, http.StatusGone, cluster.CodeCompacted, err)
	case errors.Is(err, violation.ErrInDoubt):
		writeError(w, r, http.StatusServiceUnavailable, cluster.CodeInDoubt, err)
	case errors.Is(err, violation.ErrWAL):
		writeError(w, r, http.StatusInternalServerError, cluster.CodeInternal, err)
	case errors.Is(err, cluster.ErrUnavailable):
		writeError(w, r, http.StatusServiceUnavailable, cluster.CodeUnavailable, err)
	case errors.As(err, &api):
		writeError(w, r, api.Status, api.Code, err)
	case otherwise == http.StatusUnprocessableEntity:
		writeError(w, r, otherwise, cluster.CodeUnprocessable, err)
	default:
		writeError(w, r, http.StatusInternalServerError, cluster.CodeInternal, err)
	}
}

// etagList parses an If-Match/If-None-Match header into its bare entity
// tags: a comma-separated list of quoted (optionally W/-prefixed) tags, per
// RFC 9110. matchAny reports a "*" anywhere in the list, which matches every
// current version; an empty header yields (nil, false).
func etagList(header string) (tags []string, matchAny bool) {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "*" {
			return nil, true
		}
		part = strings.TrimPrefix(part, "W/")
		tags = append(tags, strings.Trim(part, `"`))
	}
	return tags, false
}

// etagMatch reports whether an If-Match/If-None-Match header matches the
// current version: "*" matches whenever a version is served, otherwise the
// version must appear among the listed tags. An empty header never matches
// (callers treat it as "header absent").
func etagMatch(header, version string) bool {
	tags, matchAny := etagList(header)
	if matchAny {
		return version != ""
	}
	for _, tag := range tags {
		if tag == version {
			return true
		}
	}
	return false
}

// pageParams parses the limit/cursor query parameters: a non-negative
// integer cursor (default 0) and a positive limit (0 when absent: no limit).
func pageParams(q url.Values) (cursor, limit int, err error) {
	if c := q.Get("cursor"); c != "" {
		if cursor, err = strconv.Atoi(c); err != nil || cursor < 0 {
			return 0, 0, fmt.Errorf("cursor %q is not a non-negative integer", c)
		}
	}
	if l := q.Get("limit"); l != "" {
		if limit, err = strconv.Atoi(l); err != nil || limit <= 0 {
			return 0, 0, fmt.Errorf("limit %q is not a positive integer", l)
		}
	}
	return cursor, limit, nil
}

// pageWindow resolves the limit/cursor query parameters to a [lo,hi) window
// over n items held in a fixed deterministic order, and, when items remain
// past the window, the cursor of the next page. No limit means everything.
func pageWindow(q url.Values, n int) (lo, hi int, next string, err error) {
	lo, limit, err := pageParams(q)
	if err != nil {
		return 0, 0, "", err
	}
	lo = min(lo, n)
	hi = n
	// Compared as a difference: lo+limit overflows for a huge limit.
	if limit > 0 && limit < hi-lo {
		hi = lo + limit
		next = strconv.Itoa(hi)
	}
	return lo, hi, next, nil
}

// sinceParam parses a ?since= epoch; ok is false when the parameter is absent.
func sinceParam(q url.Values) (since uint64, ok bool, err error) {
	raw := q.Get("since")
	if raw == "" {
		return 0, false, nil
	}
	if since, err = strconv.ParseUint(raw, 10, 64); err != nil {
		return 0, false, fmt.Errorf("since %q is not an epoch", raw)
	}
	return since, true, nil
}

// maxBody bounds every request body the API reads — a rule file, a batch, a
// tuple (32 MiB is far above any realistic one).
const maxBody = 32 << 20

// readBody reads a request body whole, answering 413 itself when it is over
// maxBody (and 400 when it cannot be read). The buffer is sized from
// Content-Length, up to a megabyte: a header alone commands no more.
func readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), 1<<20)+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, r, http.StatusRequestEntityTooLarge, cluster.CodePayloadTooLarge, fmt.Errorf("request body exceeds %d bytes", maxBody))
	case err != nil:
		badRequest(w, r, fmt.Errorf("reading body: %w", err))
	}
	return buf.Bytes(), err == nil
}

// decodeBody reads a JSON request body into into, answering 413 or 400 itself.
// Like every JSON body of this API it is the first value of the body: bytes
// after it are ignored.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	body, ok := readBody(w, r)
	if !ok {
		return false
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(into); err != nil {
		badRequest(w, r, fmt.Errorf("decoding body: %w", err))
		return false
	}
	return true
}

// health answers 200 with the mode's document — 503 with the same document
// from a node whose store has failed: it still serves reads, but a load
// balancer, or the coordinator, must stop counting it as a healthy writer.
func (a api) health(w http.ResponseWriter, r *http.Request) {
	doc, status := a.b.Health(r.Context()), http.StatusOK
	if node, ok := doc.(cluster.HealthDoc); ok && node.StoreFailed != "" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, doc)
}

// rules serves the current rule set as rules.Set JSON — the rules in set
// order plus class counts, pattern tableaux and (when the set came from
// discovery or a remine) its provenance — alongside the serving schema and
// the set's version fingerprint, which is also sent as the ETag. A client
// that polls with If-None-Match sees 304 until a swap changes the rules. The
// ruleset document round-trips through rules.Parse, so it feeds straight back
// into cfdserve -rules, PUT /v1/rules or cfdclean -rules.
func (a api) rules(w http.ResponseWriter, r *http.Request) {
	held := func(version string) bool { return etagMatch(r.Header.Get("If-None-Match"), version) }
	doc, err := a.b.Rules(r.Context(), held)
	if err != nil {
		fail(w, r, err, http.StatusInternalServerError)
		return
	}
	w.Header().Set("ETag", `"`+doc.Version+`"`)
	if held(doc.Version) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// putRules atomically swaps the served rule set for the uploaded rule file —
// text (cfddiscover -o) or rules.Set JSON (GET /v1/rules), sniffed. An
// If-Match header makes the swap conditional on the currently served rules
// version (the ETag of GET /v1/rules) being among its tags: a mismatch is
// rejected with 409, so two operators cannot silently overwrite each other.
// "*" (match-any) leaves the swap unconditional.
func (a api) putRules(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	set, err := rules.Parse(string(body))
	if err != nil {
		badRequest(w, r, err)
		return
	}
	header := r.Header.Get("If-Match")
	ifMatch, matchAny := etagList(header)
	if header != "" && !matchAny && len(ifMatch) == 0 {
		// Conditional on nothing: no served version can satisfy it.
		writeError(w, r, http.StatusConflict, cluster.CodeConflict, fmt.Errorf("If-Match %q names no rules version", header))
		return
	}
	doc, err := a.b.SwapRules(r.Context(), set, body, ifMatch)
	if err != nil {
		fail(w, r, err, http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// violations serves the violation state. Without parameters: the full
// report, consistent even while writers proceed; limit/cursor page it over
// its per-rule entries, which are in rule order. With ?since=<epoch>: the
// exact delta between that epoch and now, in O(changes) — 410 with code
// "compacted" when the epoch has left the bounded delta history, telling the
// client to resync with a full read.
func (a api) violations(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since, delta, err := sinceParam(q)
	if err != nil {
		badRequest(w, r, err)
		return
	}
	if delta {
		doc, err := a.b.Changes(r.Context(), since)
		if err != nil {
			fail(w, r, err, http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, doc)
		return
	}
	doc, err := a.b.Violations(r.Context())
	if err != nil {
		fail(w, r, err, http.StatusInternalServerError)
		return
	}
	lo, hi, next, err := pageWindow(q, len(doc.Violations))
	if err != nil {
		badRequest(w, r, err)
		return
	}
	if rw, ok := a.b.(reportWriter); ok && lo == 0 && next == "" {
		rw.writeReport(w, doc)
		return
	}
	doc.Violations, doc.NextCursor = doc.Violations[lo:hi], next
	writeJSON(w, http.StatusOK, doc)
}

// reportWriter is a backend that sends the whole violations report itself: a
// node, which re-encodes only what changed since its previous one
// (server.writeReport). The coordinator's merged report takes writeJSON.
type reportWriter interface {
	writeReport(w http.ResponseWriter, doc cluster.ViolationsDoc)
}

func (a api) suspects(w http.ResponseWriter, r *http.Request) {
	all, err := a.b.Suspects(r.Context())
	if err != nil {
		fail(w, r, err, http.StatusInternalServerError)
		return
	}
	lo, hi, next, err := pageWindow(r.URL.Query(), len(all))
	if err != nil {
		badRequest(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, cluster.SuspectsDoc{Suspects: all[lo:hi], NextCursor: next})
}

// listTuples pages through the live tuples in ascending id order — the
// bulk-export counterpart of POST /v1/tuples. The cursor is the id to resume
// from (as handed back in next_cursor), so a page stays correct even when
// tuples are inserted or deleted between requests.
func (a api) listTuples(w http.ResponseWriter, r *http.Request) {
	cursor, limit, err := pageParams(r.URL.Query())
	if err != nil {
		badRequest(w, r, err)
		return
	}
	doc, err := a.b.Tuples(r.Context(), cursor, limit)
	if err != nil {
		fail(w, r, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// insertRequest accepts either a single tuple ("values") or a batch ("rows").
type insertRequest struct {
	Values []string   `json:"values,omitempty"`
	Rows   [][]string `json:"rows,omitempty"`
}

// insert adds the rows as one atomic commit: either every row is inserted
// or none is.
func (a api) insert(w http.ResponseWriter, r *http.Request) {
	var req insertRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rows := req.Rows
	if len(req.Values) > 0 {
		rows = append(rows, req.Values)
	}
	if len(rows) == 0 {
		badRequest(w, r, errors.New(`body must carry "values" or "rows"`))
		return
	}
	doc, err := a.b.Insert(r.Context(), rows)
	if err != nil {
		fail(w, r, err, http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (a api) batch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := cluster.DecodeBatchRequest(body)
	if err != nil {
		badRequest(w, r, fmt.Errorf("decoding body: %w", err))
		return
	}
	if len(req.Ops) == 0 {
		badRequest(w, r, errors.New(`body must carry a non-empty "ops" array`))
		return
	}
	doc, err := a.b.Batch(r.Context(), req.Ops)
	if err != nil {
		fail(w, r, err, http.StatusUnprocessableEntity)
		return
	}
	if doc.IDs == nil {
		doc.IDs = []int{} // a batch that inserts nothing still answers an array
	}
	writeJSON(w, http.StatusOK, doc)
}

// pathID parses the {id} path segment, answering 400 itself when it is not a
// number.
func pathID(w http.ResponseWriter, r *http.Request) (id int, ok bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		badRequest(w, r, err)
	}
	return id, err == nil
}

func (a api) tuple(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	doc, err := a.b.Get(r.Context(), id)
	if err != nil {
		fail(w, r, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (a api) tupleViolations(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	doc, err := a.b.TupleViolations(r.Context(), id)
	if err != nil {
		fail(w, r, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// update and remove send their one op through Batch, the one write path of
// both modes, and answer the fields of its reply that PUT and DELETE
// /v1/tuples/{id} carry.
func (a api) update(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	var req insertRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Values) == 0 {
		badRequest(w, r, errors.New(`body must carry "values"`))
		return
	}
	doc, err := a.b.Batch(r.Context(), []violation.Op{{Kind: violation.OpUpdate, ID: id, Values: req.Values}})
	if err != nil {
		fail(w, r, err, http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, http.StatusOK, cluster.TupleWriteDoc{ID: id, Dirty: doc.Dirty})
}

func (a api) remove(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	doc, err := a.b.Batch(r.Context(), []violation.Op{{Kind: violation.OpDelete, ID: id}})
	if err != nil {
		fail(w, r, err, http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, http.StatusOK, cluster.TupleWriteDoc{ID: id, Tuples: doc.Tuples, Dirty: doc.Dirty})
}
