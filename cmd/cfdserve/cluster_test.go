package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The cluster fixtures: the cust schema with rules sharing the CC attribute,
// so the derived partition key is [CC] and a multi-shard placement is exact.
// (The single-node fixture rules have disjoint LHS — a legal cluster would
// collapse them onto one shard, which exercises nothing.)
var clusterSchema = []string{"CC", "AC", "PN", "NM", "STR", "CT", "ZIP"}

const clusterRules = "([CC,AC] -> CT, (_, _ || _))\n([CC,ZIP] -> STR, (_, _ || _))\n"

// newShardNode boots one single-node cfdserve over the cluster fixtures —
// empty, memory-only — as a shard of TestRunCluster's fleet runs.
func newShardNode(t *testing.T, rules string) *httptest.Server {
	t.Helper()
	return newLoggedShardNode(t, rules, config{log: testLog(io.Discard, "")})
}

// newLoggedShardNode is newShardNode with the node's logging configured by
// the caller (cfg.log).
func newLoggedShardNode(t *testing.T, rules string, cfg config) *httptest.Server {
	t.Helper()
	eng, err := loadEngine(context.Background(), config{rulesPath: rulesFile(t, rules), schema: clusterSchema})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, nil, cfg).handler())
	t.Cleanup(ts.Close)
	return ts
}

// rulesFile writes rules to a file -rules can name.
func rulesFile(t *testing.T, rules string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rules.txt")
	if err := os.WriteFile(path, []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// newCoord forms a coordinator over the given shard URLs and serves it.
func newCoord(t *testing.T, urls []string) (*coordServer, *httptest.Server) {
	t.Helper()
	cs, err := newCoordinator(context.Background(), config{
		shardURLs:    urls,
		shardTimeout: 2 * time.Second,
		initWait:     5 * time.Second,
		log:          testLog(io.Discard, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(cs.handler())
	t.Cleanup(ts.Close)
	return cs, ts
}

// canonicalReport strips a /v1/violations response to the fields both
// serving modes share — violations, dirty, rules_checked — re-marshalled so
// two equal reports are byte-identical.
func canonicalReport(t *testing.T, doc map[string]any) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"violations":    doc["violations"],
		"dirty":         doc["dirty"],
		"rules_checked": doc["rules_checked"],
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestClusterOracle drives an identical randomized op sequence through a
// 3-shard coordinator and a single node and requires byte-identical merged
// reports at every checkpoint: same assigned ids, same violations (per-rule
// tuple sets in rule order), same dirty set, same suspects, same tuple
// listing. This is the partitioning correctness argument, executed. An update
// that changes a tuple's partition key (CC) goes to the coordinator alone,
// which refuses it with 409 key_change — inside a batch after applying the
// ops before it, which the single node is then sent — so the reports still
// agree.
func TestClusterOracle(t *testing.T) {
	urls := make([]string, 3)
	for i := range urls {
		urls[i] = newShardNode(t, clusterRules).URL
	}
	cs, coord := newCoord(t, urls)
	if got := strings.Join(cs.cl.Key(), ","); got != "CC" {
		t.Fatalf("derived partition key = %q, want CC", got)
	}
	single := newShardNode(t, clusterRules)

	rng := rand.New(rand.NewSource(20260808))
	ccs := []string{"01", "44", "07", "33", "99"}
	acs := []string{"908", "131", "212"}
	cts := []string{"MH", "EDI", "NYC"}
	zips := []string{"07974", "01202", "EH4 1DT"}
	strs := []string{"Tree Ave.", "High St.", "5th Ave"}
	row := func() []string {
		return []string{
			ccs[rng.Intn(len(ccs))], acs[rng.Intn(len(acs))],
			fmt.Sprintf("%07d", rng.Intn(4)), "N" + fmt.Sprint(rng.Intn(3)),
			strs[rng.Intn(len(strs))], cts[rng.Intn(len(cts))], zips[rng.Intn(len(zips))],
		}
	}

	var live []int
	key := make(map[int]string) // each live id's CC
	pick := func() (int, bool) {
		if len(live) == 0 {
			return 0, false
		}
		return live[rng.Intn(len(live))], true
	}
	drop := func(id int) {
		for i, v := range live {
			if v == id {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	inserted := func(ids []int, rows ...[]string) {
		for i, id := range ids {
			live, key[id] = append(live, id), rows[i][0]
		}
	}
	// update draws new values for id, keeping its CC half the time.
	update := func(id int) ([]string, bool) {
		values := row()
		if rng.Intn(2) == 0 {
			values[0] = key[id]
		}
		return values, values[0] != key[id]
	}
	both := func(method, path string, body any) (map[string]any, map[string]any) {
		c := do(t, method, coord.URL+path, body, http.StatusOK)
		s := do(t, method, single.URL+path, body, http.StatusOK)
		return c, s
	}
	keyChange := func(method, path string, body any) {
		t.Helper()
		env, _ := do(t, method, coord.URL+path, body, http.StatusConflict)["error"].(map[string]any)
		if env["code"] != "key_change" {
			t.Fatalf("%s %s: error %v, want code key_change", method, path, env)
		}
	}

	check := func(step int) {
		t.Helper()
		c := do(t, "GET", coord.URL+"/v1/violations", nil, http.StatusOK)
		s := do(t, "GET", single.URL+"/v1/violations", nil, http.StatusOK)
		if cc, ss := canonicalReport(t, c), canonicalReport(t, s); cc != ss {
			t.Fatalf("step %d: reports diverge\ncoordinator: %s\nsingle node: %s", step, cc, ss)
		}
		c = do(t, "GET", coord.URL+"/v1/suspects", nil, http.StatusOK)
		s = do(t, "GET", single.URL+"/v1/suspects", nil, http.StatusOK)
		cb, _ := json.Marshal(c["suspects"])
		sb, _ := json.Marshal(s["suspects"])
		if string(cb) != string(sb) {
			t.Fatalf("step %d: suspects diverge: %s vs %s", step, cb, sb)
		}
	}

	const steps = 140
	for i := 0; i < steps; i++ {
		switch r := rng.Intn(10); {
		case r < 5: // insert a small batch of rows
			rows := make([][]string, 1+rng.Intn(3))
			for j := range rows {
				rows[j] = row()
			}
			c, s := both("POST", "/v1/tuples", map[string]any{"rows": rows})
			cids, sids := ints(t, c["ids"]), ints(t, s["ids"])
			if fmt.Sprint(cids) != fmt.Sprint(sids) {
				t.Fatalf("step %d: insert ids diverge: %v vs %v", i, cids, sids)
			}
			inserted(cids, rows...)
		case r < 7: // delete one live tuple
			id, ok := pick()
			if !ok {
				continue
			}
			both("DELETE", fmt.Sprintf("/v1/tuples/%d", id), nil)
			drop(id)
		case r < 9: // update one live tuple
			id, ok := pick()
			if !ok {
				continue
			}
			values, changed := update(id)
			path, body := fmt.Sprintf("/v1/tuples/%d", id), map[string]any{"values": values}
			if changed {
				keyChange("PUT", path, body)
				continue
			}
			both("PUT", path, body)
		default: // mixed atomic-ish batch
			first, last := row(), row()
			ops := []map[string]any{{"op": "insert", "values": first}}
			changed := false
			if id, ok := pick(); ok {
				var values []string
				values, changed = update(id)
				ops = append(ops, map[string]any{"op": "update", "id": id, "values": values})
			}
			ops = append(ops, map[string]any{"op": "insert", "values": last})
			if changed {
				// The coordinator applies the insert before the refused update;
				// the single node is sent that prefix alone.
				keyChange("POST", "/v1/batch", map[string]any{"ops": ops})
				inserted(ints(t, do(t, "POST", single.URL+"/v1/batch", map[string]any{"ops": ops[:1]}, http.StatusOK)["ids"]), first)
				continue
			}
			c, s := both("POST", "/v1/batch", map[string]any{"ops": ops})
			cids, sids := ints(t, c["ids"]), ints(t, s["ids"])
			if fmt.Sprint(cids) != fmt.Sprint(sids) {
				t.Fatalf("step %d: batch ids diverge: %v vs %v", i, cids, sids)
			}
			inserted(cids, first, last)
			// A batch that inserts nothing answers "ids": [] in both modes.
			if id, ok := pick(); ok {
				c, s := both("POST", "/v1/batch", map[string]any{"ops": []map[string]any{{"op": "delete", "id": id}}})
				if len(ints(t, c["ids"])) != 0 || len(ints(t, s["ids"])) != 0 {
					t.Fatalf("step %d: delete-only batch ids = %v vs %v, want [] and []", i, c["ids"], s["ids"])
				}
				drop(id)
			}
		}
		if i%20 == 19 {
			check(i)
		}
	}
	check(steps)

	// The tuple listing merges to the same id-ordered sequence, page by page.
	var coordAll, singleAll []any
	for _, base := range []string{coord.URL, single.URL} {
		var all []any
		cursor := ""
		for {
			u := base + "/v1/tuples?limit=7"
			if cursor != "" {
				u += "&cursor=" + cursor
			}
			doc := do(t, "GET", u, nil, http.StatusOK)
			all = append(all, doc["tuples"].([]any)...)
			next, _ := doc["next_cursor"].(string)
			if next == "" {
				break
			}
			cursor = next
		}
		if base == coord.URL {
			coordAll = all
		} else {
			singleAll = all
		}
	}
	cb, _ := json.Marshal(coordAll)
	sb, _ := json.Marshal(singleAll)
	if string(cb) != string(sb) {
		t.Fatalf("paged tuple listings diverge:\n%s\n%s", cb, sb)
	}
	if len(coordAll) != len(live) {
		t.Fatalf("listing has %d tuples, driver tracked %d", len(coordAll), len(live))
	}

	// Point reads agree too (served by whichever shard owns the id).
	for _, id := range live[:min(5, len(live))] {
		c := do(t, "GET", fmt.Sprintf("%s/v1/tuples/%d", coord.URL, id), nil, http.StatusOK)
		s := do(t, "GET", fmt.Sprintf("%s/v1/tuples/%d", single.URL, id), nil, http.StatusOK)
		cb, _ := json.Marshal(c)
		sb, _ := json.Marshal(s)
		if string(cb) != string(sb) {
			t.Fatalf("tuple %d diverges: %s vs %s", id, cb, sb)
		}
	}
}

// putGate lets a test reject PUT /v1/rules on one shard mid-swap, simulating
// a node that answers reads but cannot commit.
type putGate struct {
	h     http.Handler
	block atomic.Bool
}

func (p *putGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.block.Load() && r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/rules") {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":{"code":"internal","message":"induced swap failure"}}`))
		return
	}
	p.h.ServeHTTP(w, r)
}

// shardVersion reads the rules fingerprint a shard itself serves.
func shardVersion(t *testing.T, url string) string {
	t.Helper()
	doc := do(t, "GET", url+"/v1/rules", nil, http.StatusOK)
	v, _ := doc["version"].(string)
	return v
}

// TestClusterSwapAllOrNothing injects a commit failure mid-swap and requires
// the fleet to converge back: after the failed attempt every shard reports
// the same (old) fingerprint — a mixed rule set is never observable.
func TestClusterSwapAllOrNothing(t *testing.T) {
	gates := make([]*putGate, 3)
	urls := make([]string, 3)
	for i := range urls {
		node := newShardNode(t, clusterRules)
		gates[i] = &putGate{h: node.Config.Handler}
		node.Config.Handler = gates[i]
		urls[i] = node.URL
	}
	_, coord := newCoord(t, urls)
	oldVersion := shardVersion(t, urls[0])

	// Shard 1 commits reads but refuses the PUT: commit reaches shard 0,
	// fails at shard 1, and must roll shard 0 back.
	gates[1].block.Store(true)
	newRules := "([CC,AC] -> CT, (_, _ || _))\n"
	resp := clusterReq(t, "PUT", coord.URL+"/v1/rules", newRules, "", http.StatusServiceUnavailable)
	if code := errCode(t, resp); code != codeUnavailable {
		t.Fatalf("failed swap error code = %q, want %q", code, codeUnavailable)
	}
	for i, u := range urls {
		if v := shardVersion(t, u); v != oldVersion {
			t.Fatalf("after the aborted swap shard %d serves %q, want the old %q", i, v, oldVersion)
		}
	}
	// The fleet is consistent, so reads still work.
	doc := do(t, "GET", coord.URL+"/v1/rules", nil, http.StatusOK)
	if doc["version"] != oldVersion {
		t.Fatalf("coordinator serves %v, want %q", doc["version"], oldVersion)
	}

	// A stale If-Match is rejected before any shard changes.
	clusterReq(t, "PUT", coord.URL+"/v1/rules", newRules, `"not-the-version"`, http.StatusConflict)

	// Rules that cannot be partitioned by the cluster key are rejected.
	clusterReq(t, "PUT", coord.URL+"/v1/rules", "([AC] -> CT, (131 || EDI))\n", "", http.StatusUnprocessableEntity)

	// Unblocked, the same swap commits everywhere, CAS-guarded end to end.
	gates[1].block.Store(false)
	swap := doJSON(t, clusterReq(t, "PUT", coord.URL+"/v1/rules", newRules, `"`+oldVersion+`"`, http.StatusOK))
	newVersion, _ := swap["version"].(string)
	if newVersion == "" || newVersion == oldVersion {
		t.Fatalf("swap response = %v", swap)
	}
	// If-Match "*" is match-any, and a list naming the current version among
	// stale ones passes — the RFC forms, same as the single node.
	clusterReq(t, "PUT", coord.URL+"/v1/rules", newRules, `*`, http.StatusOK)
	clusterReq(t, "PUT", coord.URL+"/v1/rules", newRules, `"stale-version", "`+newVersion+`"`, http.StatusOK)
	for i, u := range urls {
		if v := shardVersion(t, u); v != newVersion {
			t.Fatalf("after the committed swap shard %d serves %q, want %q", i, v, newVersion)
		}
	}
	// The merge cache followed the swap: reads serve under the new set.
	do(t, "GET", coord.URL+"/v1/violations", nil, http.StatusOK)

	// Every outcome above was counted.
	scrape := metricsBody(t, coord)
	for _, series := range []string{
		`cfd_coord_rule_swaps_total{outcome="aborted"} 1`,
		`cfd_coord_rule_swaps_total{outcome="rejected"} 2`,
		`cfd_coord_rule_swaps_total{outcome="committed"} 3`,
	} {
		if !strings.Contains(scrape, series) {
			t.Errorf("coordinator /metrics lacks %s:\n%s", series, grepLines(scrape, "cfd_coord_rule_swaps_total"))
		}
	}
}

// TestClusterDegraded kills a shard and checks the partial-failure contract:
// aggregated health degrades naming the shard, correctness-bearing reads
// fail closed with the 503 "unavailable" envelope, writes routed to the live
// shards still land while writes owned by the dead one fail closed — and when
// the shard restarts from its state directory on the same address, the next
// health probe notices, merged reads come back with its slice in them, and
// the coordinator's own /metrics told the story.
func TestClusterDegraded(t *testing.T) {
	nodes := make([]*httptest.Server, 3)
	urls := make([]string, 3)
	for i := range urls[:2] {
		nodes[i] = newShardNode(t, clusterRules)
		urls[i] = nodes[i].URL
	}
	// Shard 2 is durable, so it can die with its tuples and come back.
	stateDir := t.TempDir()
	bootShard2 := func(cfg config, addr string) *serving {
		t.Helper()
		cfg.statePath, cfg.log = stateDir, testLog(io.Discard, "")
		sv, err := buildServing(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		nodes[2] = &httptest.Server{Listener: ln, Config: &http.Server{Handler: newServer(sv.eng, sv.store, cfg).handler()}}
		nodes[2].Start()
		return sv
	}
	sv := bootShard2(config{rulesPath: rulesFile(t, clusterRules), schema: clusterSchema}, "127.0.0.1:0")
	urls[2] = nodes[2].URL
	_, coord := newCoord(t, urls)
	// CC 01 is owned by shard 2, CC 44 by shard 0.
	mike := []string{"01", "908", "1111111", "Mike", "Tree Ave.", "MH", "07974"}
	do(t, "POST", coord.URL+"/v1/tuples", map[string]any{"rows": [][]string{
		mike,
		{"44", "131", "3333333", "Ben", "High St.", "EDI", "EH4 1DT"},
	}}, http.StatusOK)
	if got := do(t, "GET", urls[2]+"/v1/health", nil, http.StatusOK)["tuples"]; got != 1.0 {
		t.Fatalf("shard 2 holds %v tuples, want Mike alone", got)
	}

	// Killed, not stopped: no final compaction, the WAL is what survives.
	nodes[2].Close()
	if err := sv.store.Close(); err != nil {
		t.Fatal(err)
	}

	health := do(t, "GET", coord.URL+"/v1/health", nil, http.StatusOK)
	if health["status"] != "degraded" {
		t.Fatalf("health status = %v, want degraded", health["status"])
	}
	shards := health["shards"].([]any)
	down := shards[2].(map[string]any)
	if down["healthy"] != false || down["error"] == nil {
		t.Fatalf("shard 2 status = %v, want unhealthy with an error", down)
	}
	if shards[0].(map[string]any)["healthy"] != true {
		t.Fatalf("shard 0 must stay healthy: %v", shards[0])
	}

	resp := clusterReq(t, "GET", coord.URL+"/v1/violations", "", "", http.StatusServiceUnavailable)
	if code := errCode(t, resp); code != codeUnavailable {
		t.Fatalf("degraded read error code = %q, want %q", code, codeUnavailable)
	}
	clusterReq(t, "GET", coord.URL+"/v1/suspects", "", "", http.StatusServiceUnavailable)
	clusterReq(t, "GET", coord.URL+"/v1/tuples", "", "", http.StatusServiceUnavailable)

	ins := do(t, "POST", coord.URL+"/v1/tuples", map[string]any{"rows": [][]string{
		{"44", "131", "6666666", "Amy", "High St.", "EDI", "EH4 1DT"},
	}}, http.StatusOK)
	if got := ints(t, ins["ids"]); fmt.Sprint(got) != "[2]" {
		t.Fatalf("insert on a live shard while degraded: ids %v, want [2]", got)
	}
	resp = clusterReq(t, "POST", coord.URL+"/v1/tuples",
		`{"rows":[["01","212","8888888","Eve","5th Ave","NYC","01202"]]}`, "", http.StatusServiceUnavailable)
	if code := errCode(t, resp); code != codeUnavailable {
		t.Fatalf("write owned by the dead shard: error code %q, want %q", code, codeUnavailable)
	}
	scrape := metricsBody(t, coord)
	for _, series := range []string{
		`cfd_coord_shard_up{shard="2"} 0`,
		`cfd_coord_shard_requests_total{shard="0",result="ok"}`,
		`cfd_coord_shard_requests_total{shard="2",result="error"}`,
		`cfd_coord_scatter_errors_total{op="violations"} 1`,
	} {
		if !strings.Contains(scrape, series) {
			t.Errorf("degraded coordinator /metrics lacks %s:\n%s", series, grepLines(scrape, "cfd_coord_"))
		}
	}

	// Back on the same address, from the state directory alone.
	sv = bootShard2(config{}, strings.TrimPrefix(urls[2], "http://"))
	defer nodes[2].Close()
	defer sv.close()
	if health := do(t, "GET", coord.URL+"/v1/health", nil, http.StatusOK); health["status"] != "ok" || health["tuples"] != 3.0 {
		t.Fatalf("health after the shard restart = %v, want ok with 3 tuples", health)
	}
	do(t, "GET", coord.URL+"/v1/violations", nil, http.StatusOK)
	if got := do(t, "GET", coord.URL+"/v1/tuples/0", nil, http.StatusOK)["values"]; fmt.Sprint(got) != fmt.Sprint(mike) {
		t.Fatalf("tuple 0 after the shard restart = %v, want %v", got, mike)
	}
	if scrape := metricsBody(t, coord); !strings.Contains(scrape, `cfd_coord_shard_up{shard="2"} 1`) {
		t.Errorf("recovered coordinator /metrics:\n%s", grepLines(scrape, "cfd_coord_shard_up"))
	}
}

// syncBuffer is a log destination several handler goroutines write to while
// the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestClusterRequestIDCrossesTheHop: one user request is one id on every node
// it touches. The coordinator forwards the id its middleware adopted (or
// generated) as X-Request-Id; the shard adopts it, so the shard's access-log
// line and the shard's own error envelope repeat the coordinator's id.
func TestClusterRequestIDCrossesTheHop(t *testing.T) {
	var shardLog syncBuffer
	node := newLoggedShardNode(t, clusterRules, config{log: testLog(&shardLog, "json")})
	// What the shard answers the coordinator is invisible to the client (only
	// the message is passed on), so tap it.
	var mu sync.Mutex
	var shardReplies []string
	inner := node.Config.Handler
	node.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		mu.Lock()
		shardReplies = append(shardReplies, rec.Body.String())
		mu.Unlock()
		for k, vs := range rec.Header() {
			w.Header()[k] = vs
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	})
	_, coord := newCoord(t, []string{node.URL})

	// shardLine finds the shard's access-log record of one route under one id.
	shardLine := func(id, route string) map[string]any {
		t.Helper()
		for _, line := range strings.Split(strings.TrimSpace(shardLog.String()), "\n") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("shard log line is not JSON: %v\n%s", err, line)
			}
			if rec["msg"] == "request" && rec["request_id"] == id && rec["route"] == route {
				return rec
			}
		}
		t.Fatalf("the shard logged no %s request under id %q:\n%s", route, id, shardLog.String())
		return nil
	}

	// A client-chosen id, on a request the owning shard answers 404.
	req, _ := http.NewRequest("GET", coord.URL+"/v1/tuples/4242", nil)
	req.Header.Set("X-Request-Id", "hop-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", resp.StatusCode, body)
	}
	var env struct {
		Error struct {
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.RequestID != "hop-trace-1" {
		t.Errorf("coordinator envelope %s (%v), want request_id hop-trace-1", body, err)
	}
	if rec := shardLine("hop-trace-1", "/tuples/{id}"); rec["status"] != float64(404) {
		t.Errorf("shard access-log record = %v, want status 404", rec)
	}
	mu.Lock()
	last := shardReplies[len(shardReplies)-1]
	mu.Unlock()
	if err := json.Unmarshal([]byte(last), &env); err != nil || env.Error.RequestID != "hop-trace-1" {
		t.Errorf("shard envelope %s (%v), want request_id hop-trace-1", last, err)
	}

	// No client id: the one the coordinator generates is the one the shard logs.
	resp, err = http.Get(coord.URL + "/v1/violations")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Request-Id")
	if !validRequestID(id) {
		t.Fatalf("coordinator generated id %q", id)
	}
	shardLine(id, "/violations")
}

// clusterReq performs a request with a literal body (and optional If-Match),
// asserting the status; the response body is returned undecoded.
func clusterReq(t *testing.T, method, url, body, ifMatch string, wantStatus int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if ifMatch != "" {
		req.Header.Set("If-Match", ifMatch)
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
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d (body %s)", method, url, resp.StatusCode, wantStatus, data)
	}
	return data
}

func doJSON(t *testing.T, data []byte) map[string]any {
	t.Helper()
	out := map[string]any{}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	return out
}

// errCode extracts the stable code of an error envelope.
func errCode(t *testing.T, data []byte) string {
	t.Helper()
	doc := doJSON(t, data)
	env, _ := doc["error"].(map[string]any)
	code, _ := env["code"].(string)
	return code
}

// TestClusterDuplicateRules uploads a rule file that holds one rule three
// ways — once, repeated verbatim and with its LHS reordered — to a coordinator
// and to a single node. A rule set holds each rule once, so both modes list it
// once in GET /v1/rules, count distinct rules in rules_checked and serve the
// same /v1/violations report (the fields both modes share, as in
// TestClusterOracle).
func TestClusterDuplicateRules(t *testing.T) {
	urls := []string{newShardNode(t, clusterRules).URL, newShardNode(t, clusterRules).URL}
	_, coord := newCoord(t, urls)
	single := newShardNode(t, clusterRules)

	const dupRules = "([CC,AC] -> CT, (_, _ || _))\n([CC,ZIP] -> STR, (_, _ || _))\n" +
		"([CC,AC] -> CT, (_, _ || _))\n([AC,CC] -> CT, (_, _ || _))\n"
	rows := [][]string{
		{"01", "908", "1111111", "N1", "Tree Ave.", "MH", "07974"},
		{"01", "908", "2222222", "N2", "Tree Ave.", "NYC", "07974"},
		{"44", "131", "3333333", "N3", "High St.", "EDI", "EH4 1DT"},
	}
	var reports []string
	for _, base := range []string{coord.URL, single.URL} {
		clusterReq(t, "PUT", base+"/v1/rules", dupRules, "", http.StatusOK)
		do(t, "POST", base+"/v1/tuples", map[string]any{"rows": rows}, http.StatusOK)
		ruleset, _ := do(t, "GET", base+"/v1/rules", nil, http.StatusOK)["ruleset"].(map[string]any)
		if listed, _ := ruleset["rules"].([]any); len(listed) != 2 {
			t.Fatalf("%s: GET /v1/rules lists %v, want each rule once", base, listed)
		}
		doc := do(t, "GET", base+"/v1/violations", nil, http.StatusOK)
		if vs, _ := doc["violations"].([]any); doc["rules_checked"] != 2.0 || len(vs) != 1 {
			t.Fatalf("%s: rules_checked %v, violations %v; want 2 distinct rules, one violated", base, doc["rules_checked"], vs)
		}
		reports = append(reports, canonicalReport(t, doc))
	}
	if reports[0] != reports[1] {
		t.Fatalf("reports diverge\ncoordinator: %s\nsingle node: %s", reports[0], reports[1])
	}
}
