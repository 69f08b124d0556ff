package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/cluster"
	"repro/violation"
)

// FuzzServe drives the whole /v1 surface with hostile request sequences, each
// against a node and against a coordinator over two shards that hold the same
// rules and tuples. Every reply must be free of 5xx and be one API.md lists
// for its route, and after every request the state reads of the two modes
// must agree byte for byte — except where API.md documents that the modes
// differ (modeDifferences).
//
//	go test ./cmd/cfdserve -run '^$' -fuzz '^FuzzServe$' -fuzztime 30s -fuzzminimizetime 10x
func FuzzServe(f *testing.F) {
	codeStatus := apiCodeStatus(f)
	rulesPath := filepath.Join(f.TempDir(), "rules.txt")
	if err := os.WriteFile(rulesPath, []byte(clusterRules), 0o644); err != nil {
		f.Fatal(err)
	}
	rows := custRows(f)
	for _, seed := range fuzzSeeds {
		f.Add(seed.encode(f))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fx := newServeFixture(t, rulesPath, rows)
		for _, rq := range decodeRequests(data) {
			if applied := differences(rq, nil, nil); applied.any(notSent) {
				continue
			}
			node, coord := fx.send(t, rq)
			for _, rp := range []fuzzReply{node, coord} {
				rp.check(t, rq.route, codeStatus)
			}
			applied := differences(rq, &node, &coord)
			if applied.any(statesDiffer) {
				fx = newServeFixture(t, rulesPath, rows)
				continue
			}
			if !applied.any(repliesDiffer) {
				sameReply(t, rq.String(), node, coord, applied.fields())
			}
			fx.sameState(t, rq, codeStatus)
		}
	})
}

// apiCodeStatus reads API.md's error-envelope table into code → status and
// holds it to the codes cluster/docs.go declares: the same set, no more.
func apiCodeStatus(tb testing.TB) map[string]int {
	data, err := os.ReadFile("../../API.md")
	if err != nil {
		tb.Fatal(err)
	}
	out := make(map[string]int)
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z_]+)` +\\| ([0-9]{3}) ").FindAllStringSubmatch(string(data), -1) {
		out[m[1]], _ = strconv.Atoi(m[2])
	}
	declared := []string{
		cluster.CodeBadRequest, cluster.CodeNotFound, cluster.CodeConflict, cluster.CodeKeyChange,
		cluster.CodeCompacted, cluster.CodePayloadTooLarge, cluster.CodeUnprocessable,
		cluster.CodeInternal, cluster.CodeInDoubt, cluster.CodeUnavailable,
	}
	listed := make([]string, 0, len(out))
	for code := range out {
		listed = append(listed, code)
	}
	slices.Sort(listed)
	slices.Sort(declared)
	if !slices.Equal(listed, declared) {
		tb.Fatalf("API.md's error table lists %v, cluster/docs.go declares %v", listed, declared)
	}
	return out
}

// routeAnswers is what API.md lists each shared route answering: its success
// statuses and its error codes (each with the status API.md's error table
// gives it). A 5xx is never an answer here: no shard fails in this test.
var routeAnswers = map[string]struct {
	ok    []int
	codes []string
}{
	"GET /health":                 {[]int{200}, nil},
	"GET /rules":                  {[]int{200, 304}, nil},
	"PUT /rules":                  {[]int{200}, []string{cluster.CodeBadRequest, cluster.CodeConflict, cluster.CodePayloadTooLarge, cluster.CodeUnprocessable}},
	"GET /violations":             {[]int{200}, []string{cluster.CodeBadRequest, cluster.CodeCompacted}},
	"GET /suspects":               {[]int{200}, []string{cluster.CodeBadRequest}},
	"GET /tuples":                 {[]int{200}, []string{cluster.CodeBadRequest}},
	"POST /tuples":                {[]int{200}, []string{cluster.CodeBadRequest, cluster.CodePayloadTooLarge, cluster.CodeUnprocessable}},
	"POST /batch":                 {[]int{200}, []string{cluster.CodeBadRequest, cluster.CodeNotFound, cluster.CodeKeyChange, cluster.CodePayloadTooLarge, cluster.CodeUnprocessable}},
	"GET /tuples/{id}":            {[]int{200}, []string{cluster.CodeBadRequest, cluster.CodeNotFound}},
	"GET /tuples/{id}/violations": {[]int{200}, []string{cluster.CodeBadRequest, cluster.CodeNotFound}},
	"PUT /tuples/{id}":            {[]int{200}, []string{cluster.CodeBadRequest, cluster.CodeNotFound, cluster.CodeKeyChange, cluster.CodePayloadTooLarge, cluster.CodeUnprocessable}},
	"DELETE /tuples/{id}":         {[]int{200}, []string{cluster.CodeBadRequest, cluster.CodeNotFound}},
}

// What a documented difference does to the comparison of the two modes.
type diffEffect int

const (
	notSent       diffEffect = iota // the request goes to neither mode
	repliesDiffer                   // a read the modes answer differently: its replies are not compared
	fieldsDiffer                    // the fields only one mode carries are dropped before replies are compared
	statesDiffer                    // the modes' states may part: the fixture is rebuilt
)

// modeDifferences are the ways API.md documents a coordinator answering
// differently from a node, the one table FuzzServe reads. applies sees the
// request before it is sent (nil replies) and again with both replies.
var modeDifferences = []struct {
	what    string
	effect  diffEffect
	fields  []string
	applies func(rq fuzzRequest, node, coord *fuzzReply) bool
}{
	{"GET /v1/health: the coordinator's is the fleet's aggregate", repliesDiffer, nil,
		func(rq fuzzRequest, _, _ *fuzzReply) bool { return rq.route == "GET /health" }},
	{`GET /v1/rules: the coordinator omits "stats", which are per shard`, fieldsDiffer, []string{"stats"},
		func(rq fuzzRequest, _, _ *fuzzReply) bool { return rq.route == "GET /rules" }},
	{`PUT /v1/rules: the coordinator's reply carries "shards" in place of "delta"`, fieldsDiffer, []string{"delta", "shards"},
		func(rq fuzzRequest, _, _ *fuzzReply) bool { return rq.route == "PUT /rules" }},
	{"SSE: the violations stream, like remine, is served by a node alone", notSent, nil,
		func(rq fuzzRequest, _, _ *fuzzReply) bool { return !slices.Contains(coordRoutes(), rq.route) }},
	{`a client "at" pin is the coordinator's 422: it assigns ids`, notSent, nil,
		func(rq fuzzRequest, _, _ *fuzzReply) bool {
			req, err := cluster.DecodeBatchRequest(rq.body)
			return rq.route == "POST /batch" && err == nil && slices.ContainsFunc(req.Ops, func(op violation.Op) bool { return op.At != nil })
		}},
	{"?since= delta reads are the coordinator's 400: the fleet has no one epoch", repliesDiffer, nil,
		func(rq fuzzRequest, _, _ *fuzzReply) bool {
			return rq.route == "GET /violations" && rq.query.Get("since") != ""
		}},
	{`the full report carries "epoch" on a node, "epochs" on the coordinator`, fieldsDiffer, []string{"epoch", "epochs"},
		func(rq fuzzRequest, _, _ *fuzzReply) bool { return rq.route == "GET /violations" }},
	{`write replies carry the "tuples" and "dirty" counts on a node alone`, fieldsDiffer, []string{"tuples", "dirty"},
		func(rq fuzzRequest, _, _ *fuzzReply) bool { return isWrite(rq.route) }},
	{"the coordinator validates every op's kind, arity and pin before it locates any id: a request that fails both ways is its 422 where a node may answer 404", repliesDiffer, nil,
		func(_ fuzzRequest, node, coord *fuzzReply) bool {
			return coord != nil && node.code != "" && coord.code == cluster.CodeUnprocessable
		}},
	{"409 key_change: the coordinator refuses an update that would move a tuple to another shard", statesDiffer, nil,
		func(_ fuzzRequest, _, coord *fuzzReply) bool {
			return coord != nil && coord.code == cluster.CodeKeyChange
		}},
	{"a coordinator batch is not atomic: an op that fails on its shard leaves the ops before it applied", statesDiffer, nil,
		func(rq fuzzRequest, _, coord *fuzzReply) bool {
			return rq.route == "POST /batch" && coord != nil && coord.code == cluster.CodeNotFound
		}},
	{"the coordinator refuses a rule set whose rules do not all keep the partition key with 422", statesDiffer, nil,
		func(rq fuzzRequest, node, coord *fuzzReply) bool {
			return rq.route == "PUT /rules" && coord != nil && coord.code == cluster.CodeUnprocessable && node.status == http.StatusOK
		}},
}

// appliedDifferences are the modeDifferences that cover one request.
type appliedDifferences []int

func differences(rq fuzzRequest, node, coord *fuzzReply) appliedDifferences {
	var out appliedDifferences
	for i, d := range modeDifferences {
		if d.applies(rq, node, coord) {
			out = append(out, i)
		}
	}
	return out
}

func (a appliedDifferences) any(effect diffEffect) bool {
	return slices.ContainsFunc(a, func(i int) bool { return modeDifferences[i].effect == effect })
}

func (a appliedDifferences) fields() []string {
	var out []string
	for _, i := range a {
		if modeDifferences[i].effect == fieldsDiffer {
			out = append(out, modeDifferences[i].fields...)
		}
	}
	return out
}

func isWrite(route string) bool {
	switch route {
	case "POST /tuples", "POST /batch", "PUT /tuples/{id}", "DELETE /tuples/{id}":
		return true
	}
	return false
}

// nodeRoutes and coordRoutes are the two modes' route tables as
// "METHOD /pattern".
func nodeRoutes() []string  { return routeNames((&server{}).routes()) }
func coordRoutes() []string { return routeNames((&coordServer{}).routes()) }

func routeNames(routes []route) []string {
	out := make([]string, len(routes))
	for i, rt := range routes {
		out[i] = rt.method + " " + rt.pattern
	}
	return out
}

// The request parts a fuzz input picks from: path ids (live ones, a
// never-assigned one, the int range's edges and non-numbers), query
// parameters (every paging key with edge-case values; two picks may repeat a
// key), bodies (fuzzBodies, then mutated) and the headers a route reads.
var (
	fuzzIDs         = []string{"0", "1", "2", "5", "8", "-1", "4242", "9223372036854775807", "abc", "1e3"}
	fuzzParamKeys   = []string{"limit", "cursor", "since"}
	fuzzParamValues = []string{"1", "3", "0", "-1", "9223372036854775807", "x", ""}
	fuzzTags        = []string{"", "*", versionTag, `"bogus", W/"x"`}
	fuzzRequestIDs  = []string{"", "fuzz-1", "not a request id!", strings.Repeat("a", 65)}
	fuzzTypes       = []string{"", "application/json", "text/plain", "multipart/form-data; boundary=x"}
)

// versionTag stands for the quoted version the node serves when the request
// is sent.
const versionTag = "<served version>"

// fuzzBodies is the seed corpus of request bodies, by name. The update
// bodies keep the CC of the fixture's tuples 1 and 2 (01), except the one
// named so.
var fuzzBodies = []struct {
	name string
	body string
}{
	{"none", ""},
	{"values", `{"values":["01","908","1111111","Mike","Tree Ave.","NYC","07974"]}`},
	{"values-new-key", `{"values":["99","908","1111111","Mike","Tree Ave.","MH","07974"]}`},
	{"values-short", `{"values":["too","short"]}`},
	{"rows", `{"rows":[["01","212","6666666","Bo","5th Ave","NYC","01202"],["44","131","5555555","Ann","High St.","EDI","EH4 1DT"]]}`},
	{"batch", `{"ops":[{"op":"insert","values":["01","908","7777777","Cy","Elm Str.","UN","07974"]},{"op":"update","id":8,"values":["01","908","7777777","Cy","Elm Str.","MH","07974"]},{"op":"delete","id":2}]}`},
	{"batch-at", `{"ops":[{"op":"insert","at":20,"values":["01","908","7777777","Cy","Elm Str.","UN","07974"]}]}`},
	{"batch-unknown-id", `{"ops":[{"op":"insert","values":["44","131","8888888","Di","High St.","EDI","EH4 1DT"]},{"op":"delete","id":4242}]}`},
	{"batch-empty", `{"ops":[]}`},
	{"rules", clusterRules},
	{"rules-more", clusterRules + "([CC,PN] -> NM, (_, _ || _))\n"},
	{"rules-off-key", "([AC] -> CT, (131 || EDI))\n"},
	{"rules-nested", nestedRuleset()},
	{"object", `{}`},
	{"not-json", `{not json`},
}

// fuzzRequest is one decoded request.
type fuzzRequest struct {
	route  string // "METHOD /pattern"
	id     string
	query  url.Values
	body   []byte
	header http.Header
}

func (rq fuzzRequest) String() string {
	return rq.route + " id=" + rq.id + " ?" + rq.query.Encode()
}

// maxFuzzRequests bounds one input's sequence.
const maxFuzzRequests = 8

// decodeRequests reads a request sequence off fuzz bytes: per request a route,
// an id, two query parameters, a body and a header byte, then a count of body
// edits and three bytes per edit (an offset and a byte: 0 cuts the body
// there, anything else overwrites).
func decodeRequests(data []byte) []fuzzRequest {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	pick := func(n int) int { return int(next()) % n }
	routes := nodeRoutes()
	var out []fuzzRequest
	for len(data) > 0 && len(out) < maxFuzzRequests {
		rq := fuzzRequest{route: routes[pick(len(routes))], id: fuzzIDs[pick(len(fuzzIDs))], query: url.Values{}, header: http.Header{}}
		for range 2 {
			if b := next(); b%4 != 0 {
				rq.query.Add(fuzzParamKeys[b%4-1], fuzzParamValues[int(b/4)%len(fuzzParamValues)])
			}
		}
		rq.body = []byte(fuzzBodies[pick(len(fuzzBodies))].body)
		h := next()
		for i, name := range []string{"If-Match", "If-None-Match", "X-Request-Id", "Content-Type"} {
			if v := [][]string{fuzzTags, fuzzTags, fuzzRequestIDs, fuzzTypes}[i][h>>(2*i)&3]; v != "" {
				rq.header.Set(name, v)
			}
		}
		for range next() % 4 {
			at, b := int(next())<<8|int(next()), next()
			switch {
			case len(rq.body) == 0:
			case b == 0:
				rq.body = rq.body[:at%len(rq.body)]
			default:
				rq.body = append([]byte(nil), rq.body...)
				rq.body[at%len(rq.body)] = b
			}
		}
		out = append(out, rq)
	}
	return out
}

// fuzzStep is one request of a seed, by value; encode turns it into the
// bytes decodeRequests reads back.
type fuzzStep struct {
	route  string
	id     string
	params []string // "key=value", at most two
	body   string   // a fuzzBodies name
	header [4]int   // If-Match, If-None-Match, X-Request-Id and Content-Type picks
}

type fuzzSeed []fuzzStep

func (s fuzzSeed) encode(tb testing.TB) []byte {
	index := func(list []string, v string) byte {
		i := slices.Index(list, v)
		if i < 0 {
			tb.Fatalf("seed value %q is not among %q", v, list)
		}
		return byte(i)
	}
	var out []byte
	for _, st := range s {
		out = append(out, index(nodeRoutes(), st.route), index(fuzzIDs, st.id))
		for i := range 2 {
			if i >= len(st.params) {
				out = append(out, 0)
				continue
			}
			k, v, _ := strings.Cut(st.params[i], "=")
			out = append(out, index(fuzzParamKeys, k)+1+4*index(fuzzParamValues, v))
		}
		body := slices.IndexFunc(fuzzBodies, func(b struct{ name, body string }) bool { return b.name == st.body })
		if body < 0 {
			tb.Fatalf("seed body %q is not among fuzzBodies", st.body)
		}
		var h byte
		for i, pick := range st.header {
			h |= byte(pick) << (2 * i)
		}
		out = append(out, byte(body), h, 0)
	}
	return out
}

// fuzzSeeds open the corpus: a tour of the routes that reaches the
// coordinator's successful GET /v1/tuples/{id}/violations, the nested ruleset
// envelope that once took 13 s and installed an empty rule set, the limit
// whose lo+limit overflowed, requests the documented differences cover, and
// rule swaps under If-Match.
var fuzzSeeds = []fuzzSeed{
	{
		{route: "GET /tuples/{id}/violations", id: "0", body: "none"},
		{route: "PUT /tuples/{id}", id: "1", body: "values"},
		{route: "POST /tuples", id: "8", body: "rows"},
		{route: "POST /batch", id: "8", body: "batch"},
		{route: "DELETE /tuples/{id}", id: "5", body: "none"},
		{route: "GET /tuples", id: "0", params: []string{"limit=3", "cursor=3"}, body: "none"},
		{route: "GET /tuples/{id}/violations", id: "8", body: "none"},
	},
	{
		{route: "PUT /rules", id: "0", body: "rules-nested", header: [4]int{0, 0, 1, 2}},
		{route: "GET /rules", id: "0", body: "none", header: [4]int{0, 2, 0, 0}},
	},
	{
		{route: "GET /violations", id: "0", params: []string{"cursor=1", "limit=9223372036854775807"}, body: "none"},
		{route: "GET /suspects", id: "0", params: []string{"cursor=1", "limit=9223372036854775807"}, body: "none"},
		{route: "GET /violations", id: "0", params: []string{"limit=1", "limit=-1"}, body: "none"},
	},
	{
		{route: "GET /violations", id: "1", params: []string{"since=0"}, body: "none"},
		{route: "GET /violations/stream", id: "1", body: "none"},
		{route: "POST /batch", id: "1", body: "batch-at"},
		{route: "PUT /tuples/{id}", id: "1", body: "values-new-key", header: [4]int{0, 0, 2, 1}},
		{route: "POST /batch", id: "2", body: "batch-unknown-id"},
		{route: "GET /tuples/{id}", id: "9223372036854775807", body: "none"},
	},
	{
		{route: "PUT /rules", id: "0", body: "rules-more", header: [4]int{2, 0, 0, 0}},
		{route: "PUT /rules", id: "0", body: "rules-more", header: [4]int{3, 0, 0, 0}},
		{route: "PUT /rules", id: "0", body: "rules-off-key", header: [4]int{1, 0, 0, 0}},
		{route: "PUT /tuples/{id}", id: "abc", body: "values-short"},
		{route: "DELETE /tuples/{id}", id: "-1", body: "none"},
		{route: "GET /health", id: "0", body: "none"},
	},
}

// custRows are the cust fixture's tuples.
func custRows(tb testing.TB) [][]string {
	f, err := os.Open("testdata/cust.csv")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		tb.Fatal(err)
	}
	return rows[1:]
}

// serveFixture is the pair FuzzServe compares: a node, and a coordinator over
// two shards, each mode holding rows under the cluster fixture rules.
type serveFixture struct{ node, coord string }

func newServeFixture(t *testing.T, rulesPath string, rows [][]string) serveFixture {
	t.Helper()
	node := func() string {
		eng, err := loadEngine(context.Background(), config{rulesPath: rulesPath, schema: clusterSchema})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(newServer(eng, nil, config{log: testLog(io.Discard, "")}).handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	fx := serveFixture{node: node()}
	_, coord := newCoord(t, []string{node(), node()})
	fx.coord = coord.URL
	for _, base := range []string{fx.node, fx.coord} {
		do(t, "POST", base+"/v1/tuples", map[string]any{"rows": rows}, http.StatusOK)
	}
	return fx
}

// fuzzReply is one mode's answer: its status, body and envelope code.
type fuzzReply struct {
	status int
	body   []byte
	code   string
}

// send sends rq to the node, then to the coordinator. A versionTag header
// names the version the node serves before either is sent.
func (fx serveFixture) send(t *testing.T, rq fuzzRequest) (node, coord fuzzReply) {
	t.Helper()
	header := rq.header.Clone()
	for name, vs := range header {
		if vs[0] == versionTag {
			header.Set(name, `"`+do(t, "GET", fx.node+"/v1/rules", nil, http.StatusOK)["version"].(string)+`"`)
		}
	}
	method, pattern, _ := strings.Cut(rq.route, " ")
	path := "/v1" + strings.ReplaceAll(pattern, "{id}", rq.id)
	if len(rq.query) > 0 {
		path += "?" + rq.query.Encode()
	}
	one := func(base string) fuzzReply {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(rq.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header = header
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s on %s: %v", rq, base, err) // a panicking handler drops the connection
		}
		defer resp.Body.Close()
		rp := fuzzReply{status: resp.StatusCode}
		if rp.body, err = io.ReadAll(resp.Body); err != nil {
			t.Fatalf("%s on %s: reading the reply: %v", rq, base, err)
		}
		if rp.status >= 400 {
			var env cluster.ErrorDoc
			if err := json.Unmarshal(rp.body, &env); err != nil {
				t.Fatalf("%s on %s: %d reply is not the error envelope: %s", rq, base, rp.status, rp.body)
			}
			rp.code = env.Error.Code
		}
		return rp
	}
	return one(fx.node), one(fx.coord)
}

// check holds one reply to what API.md lists for its route.
func (rp fuzzReply) check(t *testing.T, route string, codeStatus map[string]int) {
	t.Helper()
	want := routeAnswers[route]
	switch {
	case rp.status >= 500:
		t.Fatalf("%s: %d %s", route, rp.status, rp.body)
	case rp.code == "":
		if !slices.Contains(want.ok, rp.status) {
			t.Fatalf("%s: status %d is not among %v", route, rp.status, want.ok)
		}
	case !slices.Contains(want.codes, rp.code) || codeStatus[rp.code] != rp.status:
		t.Fatalf("%s: %d %s is not an answer API.md lists for the route (%v): %s", route, rp.status, rp.code, want.codes, rp.body)
	}
}

// sameReply requires the two modes' replies to agree: the status and error
// code always, and a success's bytes once the fields only one mode carries
// are dropped.
func sameReply(t *testing.T, what string, node, coord fuzzReply, drop []string) {
	t.Helper()
	if node.status != coord.status || node.code != coord.code {
		t.Fatalf("%s: node answers %d %s, coordinator %d %s\nnode: %s\ncoordinator: %s",
			what, node.status, node.code, coord.status, coord.code, node.body, coord.body)
	}
	if node.status != http.StatusOK {
		return
	}
	nb, cb := withoutFields(t, node.body, drop), withoutFields(t, coord.body, drop)
	if !bytes.Equal(nb, cb) {
		t.Fatalf("%s: the modes' replies differ\nnode: %s\ncoordinator: %s", what, nb, cb)
	}
}

// withoutFields drops the named top-level fields from a JSON object; with none
// named it is the body unchanged.
func withoutFields(t *testing.T, body []byte, drop []string) []byte {
	t.Helper()
	if len(drop) == 0 {
		return body
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	for _, f := range drop {
		delete(doc, f)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameState reads the state of both modes — the full report, the suspects,
// the tuples, and the request's tuple and its violations — and requires the
// reads to agree.
func (fx serveFixture) sameState(t *testing.T, after fuzzRequest, codeStatus map[string]int) {
	t.Helper()
	for _, route := range []string{"GET /violations", "GET /suspects", "GET /tuples", "GET /tuples/{id}", "GET /tuples/{id}/violations"} {
		read := fuzzRequest{route: route, id: after.id, header: http.Header{}}
		node, coord := fx.send(t, read)
		for _, rp := range []fuzzReply{node, coord} {
			rp.check(t, route, codeStatus)
		}
		sameReply(t, "after "+after.String()+": "+route, node, coord, differences(read, &node, &coord).fields())
	}
}
