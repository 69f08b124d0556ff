package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/rules"
)

// doRaw sends a request with a raw (non-JSON-encoded) body and returns the
// decoded JSON response.
func doRaw(t *testing.T, method, url, body string, wantStatus int) map[string]any {
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
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d", method, url, resp.StatusCode, wantStatus)
	}
	out := make(map[string]any)
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return out
}

// TestPutRulesLifecycle drives the hot-swap path over HTTP: upload a new
// rule file, watch the delta, the version etag and the violation report all
// move together, then feed the served JSON straight back (a no-op swap).
func TestPutRulesLifecycle(t *testing.T) {
	ts := newTestServer(t)

	before := do(t, "GET", ts.URL+"/v1/rules", nil, http.StatusOK)
	v0 := before["version"].(string)
	if v0 == "" {
		t.Fatal("GET /rules must report a version")
	}
	health := do(t, "GET", ts.URL+"/v1/health", nil, http.StatusOK)
	if health["rules_version"] != v0 {
		t.Fatalf("health rules_version %v, want %v", health["rules_version"], v0)
	}

	// Swap: keep the street FD, drop the constant city rule, add a fresh FD.
	out := doRaw(t, "PUT", ts.URL+"/v1/rules",
		"([CC,ZIP] -> STR, (_, _ || _))\n([NM] -> PN, (_ || _))\n", http.StatusOK)
	if out["swapped"] != true || out["rules"].(float64) != 2 {
		t.Fatalf("swap response = %v", out)
	}
	delta := out["delta"].(map[string]any)
	if added := delta["added"].([]any); len(added) != 1 {
		t.Fatalf("delta added = %v, want the NM->PN FD", added)
	}
	if removed := delta["removed"].([]any); len(removed) != 1 {
		t.Fatalf("delta removed = %v, want the AC->CT rule", removed)
	}
	if delta["retained"].(float64) != 1 {
		t.Fatalf("delta retained = %v", delta["retained"])
	}

	after := do(t, "GET", ts.URL+"/v1/rules", nil, http.StatusOK)
	v1 := after["version"].(string)
	if v1 == v0 || v1 != out["version"].(string) {
		t.Fatalf("version after swap = %q (before %q, response %q)", v1, v0, out["version"])
	}
	// The constant-rule violations {4,5,7} are gone; only FD groups remain.
	viol := do(t, "GET", ts.URL+"/v1/violations", nil, http.StatusOK)
	if got := viol["rules_checked"].(float64); got != 2 {
		t.Fatalf("rules_checked = %v after swap", got)
	}

	// Feeding the served ruleset document back is a no-op swap.
	raw, err := json.Marshal(after["ruleset"])
	if err != nil {
		t.Fatal(err)
	}
	out = doRaw(t, "PUT", ts.URL+"/v1/rules", string(raw), http.StatusOK)
	if out["swapped"] != false || out["version"].(string) != v1 {
		t.Fatalf("round-trip swap response = %v", out)
	}

	// Bad uploads are rejected without touching the serving set: a file that
	// does not parse is 400, one that parses but names an unknown attribute
	// is rejected by the swap as 422.
	doRaw(t, "PUT", ts.URL+"/v1/rules", "this is not a rule file", http.StatusBadRequest)
	doRaw(t, "PUT", ts.URL+"/v1/rules", "([BOGUS] -> CT, (_ || _))\n", http.StatusUnprocessableEntity)
	if got := do(t, "GET", ts.URL+"/v1/rules", nil, http.StatusOK)["version"].(string); got != v1 {
		t.Fatalf("version moved to %q after rejected uploads", got)
	}
}

// TestRulesETag: GET /rules serves the version fingerprint as an ETag and
// honours If-None-Match until a swap changes the rules.
func TestRulesETag(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/rules")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("GET /rules must set an ETag")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/rules", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET with current etag: status %d, want 304", resp.StatusCode)
	}

	doRaw(t, "PUT", ts.URL+"/v1/rules", "([CC,ZIP] -> STR, (_, _ || _))\n", http.StatusOK)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("conditional GET after swap: status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got == etag {
		t.Fatal("etag must change when the rules do")
	}
}

// TestETagForms: If-Match/If-None-Match accept the RFC 9110 forms — "*"
// (match-any), comma-separated lists, weak W/ tags — on the parsing helpers
// and over HTTP.
func TestETagForms(t *testing.T) {
	match := []struct {
		header, version string
		want            bool
	}{
		{`"v1"`, "v1", true},
		{`"v1"`, "v2", false},
		{`*`, "anything", true},
		{`*`, "", false}, // match-any still needs a current version
		{`"v1", "v2"`, "v2", true},
		{`W/"v1", "v2"`, "v1", true},
		{`"v1" , *`, "v3", true},
		{``, "v1", false},
	}
	for _, tc := range match {
		if got := etagMatch(tc.header, tc.version); got != tc.want {
			t.Errorf("etagMatch(%q, %q) = %v, want %v", tc.header, tc.version, got, tc.want)
		}
	}
	if tags, any := etagList(`W/"v1", "v2"`); any || len(tags) != 2 || tags[0] != "v1" || tags[1] != "v2" {
		t.Fatalf(`etagList(W/"v1", "v2") = %v, %v`, tags, any)
	}
	if tags, any := etagList(`"v1", *`); !any || tags != nil {
		t.Fatalf(`etagList("v1", *) = %v, %v — "*" anywhere must mean match-any`, tags, any)
	}

	ts := newTestServer(t)
	cur := do(t, "GET", ts.URL+"/v1/rules", nil, http.StatusOK)["version"].(string)
	put := func(ifMatch string, wantStatus int) {
		t.Helper()
		req, err := http.NewRequest("PUT", ts.URL+"/v1/rules", strings.NewReader("([CC,ZIP] -> STR, (_, _ || _))\n"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-Match", ifMatch)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("PUT /rules with If-Match %s: status %d, want %d", ifMatch, resp.StatusCode, wantStatus)
		}
	}
	put(`"stale"`, http.StatusConflict)
	put(`"stale", "`+cur+`"`, http.StatusOK) // list naming the current version
	put(`*`, http.StatusOK)                  // match-any, not a literal version

	// If-None-Match: * matches whatever is served — always 304 on GET.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/rules", nil)
	req.Header.Set("If-None-Match", "*")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("GET /rules with If-None-Match *: status %d, want 304", resp.StatusCode)
	}
}

// TestPutRulesCompareAndSwap: conditional PUTs are a compare-and-swap, not a
// check followed by a swap — of N concurrent PUTs carrying one If-Match tag
// exactly one commits and the rest lose with 409 conflict. The coordinator's
// two-phase swap relies on this shard-side guarantee.
func TestPutRulesCompareAndSwap(t *testing.T) {
	ts := newTestServer(t)
	bodies := []string{"([CC,ZIP] -> STR, (_, _ || _))\n", "([AC] -> CT, (131 || EDI))\n"}
	const writers = 8
	for round := 0; round < 40; round++ {
		tag := `"` + do(t, "GET", ts.URL+"/v1/rules", nil, http.StatusOK)["version"].(string) + `"`
		statuses := make([]int, writers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range statuses {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req, err := http.NewRequest("PUT", ts.URL+"/v1/rules", strings.NewReader(bodies[round%2]))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("If-Match", tag)
				<-start
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				statuses[i] = resp.StatusCode
			}()
		}
		close(start)
		wg.Wait()
		won := 0
		for _, st := range statuses {
			switch st {
			case http.StatusOK:
				won++
			case http.StatusConflict:
			default:
				t.Fatalf("round %d: statuses %v, want only 200 and 409", round, statuses)
			}
		}
		if won != 1 {
			t.Fatalf("round %d: %d of %d PUTs with If-Match %s committed, want exactly 1 (statuses %v)", round, won, writers, tag, statuses)
		}
	}
}

// TestRulesStatsMatchTheirSet polls GET /v1/rules while another client
// swaps between two rule sets of the same size and no rule in common: every
// reply's stats must be those of its own ruleset, rule for rule, whichever
// set it caught.
func TestRulesStatsMatchTheirSet(t *testing.T) {
	ts := newTestServer(t)
	sets := []string{
		"([CC,ZIP] -> STR, (_, _ || _))\n([AC] -> CT, (131 || EDI))\n",
		"([NM] -> PN, (_ || _))\n([ZIP] -> CT, (_ || _))\n",
	}
	stop := make(chan struct{})
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req, err := http.NewRequest("PUT", ts.URL+"/v1/rules", strings.NewReader(sets[i%2]))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("swap %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-swapped
	}()
	seen := make(map[string]bool)
	for poll := 0; poll < 300; poll++ {
		var doc struct {
			Ruleset struct {
				Rules []string `json:"rules"`
			} `json:"ruleset"`
			Stats []struct {
				Rule string `json:"rule"`
			} `json:"stats"`
		}
		if err := json.Unmarshal(getRaw(t, ts.URL+"/v1/rules"), &doc); err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(doc.Stats))
		for i, st := range doc.Stats {
			got[i] = st.Rule
		}
		if !slices.Equal(got, doc.Ruleset.Rules) {
			t.Fatalf("poll %d: stats for %q next to ruleset %q", poll, got, doc.Ruleset.Rules)
		}
		seen[strings.Join(got, "\n")] = true
	}
	if len(seen) < 2 {
		t.Errorf("the polls saw %d rule sets, want both", len(seen))
	}
}

// TestRemineEndpoint: a synchronous remine over the live tuples swaps in the
// discovered rules, records the run for /health, and a second remine over
// unchanged data keeps the serving set by fingerprint.
func TestRemineEndpoint(t *testing.T) {
	ts := newTestServer(t) // config carries support=2, maxlhs=2 for remining

	v0 := do(t, "GET", ts.URL+"/v1/rules", nil, http.StatusOK)["version"].(string)
	out := do(t, "POST", ts.URL+"/v1/rules/remine?wait=1", nil, http.StatusOK)
	if out["error"] != nil {
		t.Fatalf("remine failed: %v", out["error"])
	}
	if out["tuples"].(float64) != 8 || out["swapped"] != true {
		t.Fatalf("remine result = %v", out)
	}
	if el, ok := out["elapsed"].(string); !ok || el == "" {
		t.Fatalf("remine result must record its elapsed time: %v", out)
	}
	v1 := do(t, "GET", ts.URL+"/v1/rules", nil, http.StatusOK)["version"].(string)
	if v1 == v0 || v1 != out["version"].(string) {
		t.Fatalf("version after remine = %q (before %q, result %v)", v1, v0, out)
	}
	// The remined provenance is served.
	health := do(t, "GET", ts.URL+"/v1/health", nil, http.StatusOK)
	last := health["last_remine"].(map[string]any)
	if last["swapped"] != true || health["rules_version"] != v1 {
		t.Fatalf("health after remine = %v", health)
	}

	// Unchanged data: same fingerprint, no swap.
	out = do(t, "POST", ts.URL+"/v1/rules/remine?wait=1", nil, http.StatusOK)
	if out["swapped"] != false || out["version"].(string) != v1 {
		t.Fatalf("second remine result = %v", out)
	}

	// Async flavour: accepted and eventually recorded.
	if resp, err := http.Post(ts.URL+"/v1/rules/remine", "", nil); err != nil {
		t.Fatal(err)
	} else {
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async remine status %d, want 202", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestRemineBadWait: a wait that is not a boolean is refused with 400 before
// any remine starts, so it neither runs one in the background nor holds the
// remine flag.
func TestRemineBadWait(t *testing.T) {
	ts := newTestServer(t)
	out := do(t, "POST", ts.URL+"/v1/rules/remine?wait=yes", nil, http.StatusBadRequest)
	if errDoc, _ := out["error"].(map[string]any); errDoc["code"] != "bad_request" {
		t.Fatalf("remine?wait=yes = %v, want code bad_request", out)
	}
	health := do(t, "GET", ts.URL+"/v1/health", nil, http.StatusOK)
	if health["remine_running"] != false || health["last_remine"] != nil {
		t.Fatalf("health after a refused remine = %v", health)
	}
	do(t, "POST", ts.URL+"/v1/rules/remine?wait=true", nil, http.StatusOK)
}

// TestStateRestartAfterSwap is the durability acceptance check for the rule
// lifecycle: a hot swap followed by mutations and a kill (no final
// compaction, WAL replay) or a graceful close must restart into a
// byte-identical /violations report under the *new* rule set.
func TestStateRestartAfterSwap(t *testing.T) {
	for _, graceful := range []bool{false, true} {
		t.Run(map[bool]string{false: "crash-replay", true: "graceful-compacted"}[graceful], func(t *testing.T) {
			dir := t.TempDir()
			sv, err := buildServing(context.Background(), fixtureConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(newServer(sv.eng, sv.store, config{compactEvery: 4096}).handler())
			// Mutate, swap live, then mutate again under the new rules.
			mutate(t, ts.URL)
			swap := doRaw(t, "PUT", ts.URL+"/v1/rules",
				"([CC,ZIP] -> STR, (_, _ || _))\n([NM] -> PN, (_ || _))\n", http.StatusOK)
			if swap["swapped"] != true {
				t.Fatalf("swap response = %v", swap)
			}
			do(t, "POST", ts.URL+"/v1/tuples", map[string]any{
				"values": []string{"01", "908", "3333333", "Zoe", "Tree Ave.", "MH", "07974"},
			}, http.StatusOK)
			want := getRaw(t, ts.URL+"/v1/violations")
			wantRules := getRaw(t, ts.URL+"/v1/rules")
			ts.Close()
			if graceful {
				if err := sv.close(); err != nil {
					t.Fatal(err)
				}
			} else if err := sv.store.Close(); err != nil {
				t.Fatal(err)
			}

			sv2, err := buildServing(context.Background(), config{statePath: dir, compactEvery: 4096})
			if err != nil {
				t.Fatal(err)
			}
			defer sv2.close()
			ts2 := httptest.NewServer(newServer(sv2.eng, sv2.store, config{compactEvery: 4096}).handler())
			defer ts2.Close()
			if got := getRaw(t, ts2.URL+"/v1/violations"); !bytes.Equal(got, want) {
				t.Fatalf("restarted /violations differs:\n%s\nvs\n%s", got, want)
			}
			if got := getRaw(t, ts2.URL+"/v1/rules"); !bytes.Equal(got, wantRules) {
				t.Fatalf("restarted /rules differs:\n%s\nvs\n%s", got, wantRules)
			}
			set, err := rules.Parse(string(wantRules))
			if err != nil {
				t.Fatal(err)
			}
			if set.Len() != 2 {
				t.Fatalf("restarted server serves %d rules, want the 2 swapped-in ones", set.Len())
			}
		})
	}
}
