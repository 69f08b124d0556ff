package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/discovery/monitor"
)

// newMaintainServer is newTestServer exposing the *server, so tests can read
// its obs counters and drive the maintenance loop directly.
func newMaintainServer(t *testing.T, cfg config) (*httptest.Server, *server) {
	t.Helper()
	eng, err := loadEngine(context.Background(), config{
		rulesPath: "testdata/rules.txt",
		dataPath:  "testdata/cust.csv",
	})
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(eng, nil, cfg)
	ts := httptest.NewServer(h.handler())
	t.Cleanup(ts.Close)
	return ts, h
}

// remineRuns sums the remine runs over all outcomes.
func remineRuns(h *server) uint64 {
	return h.obs.remineTotal.With("swapped").Value() +
		h.obs.remineTotal.With("unchanged").Value() +
		h.obs.remineTotal.With("error").Value()
}

// runMonitor starts the maintenance loop as bootNode's -maintain path does
// and runs it until the test ends.
func runMonitor(t *testing.T, h *server, pol monitor.Policy) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := h.maintain(ctx, pol)
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Error("monitor loop did not stop on cancel")
		}
	})
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// anyDrift remines whenever a served rule's support has moved at all since
// adoption, at most once per interval: the cheapest policy to trigger from a
// test.
var anyDrift = monitor.Policy{MaxSupportDrift: 1e-9, MinInterval: 3 * time.Millisecond}

// TestRemineLoopSkipsIdle pins the acceptance criterion: the maintenance
// loop over an idle engine performs zero discovery runs however long it
// runs, and exactly one run follows a change.
func TestRemineLoopSkipsIdle(t *testing.T) {
	ts, h := newMaintainServer(t, config{support: 2, maxLHS: 2})
	runMonitor(t, h, anyDrift)

	time.Sleep(60 * time.Millisecond)
	if got := remineRuns(h); got != 0 {
		t.Fatalf("idle loop performed %d discovery runs, want 0", got)
	}
	if got := h.obs.rulesStreamed.Value(); got != 0 {
		t.Fatalf("idle loop streamed %d rules through discovery, want 0", got)
	}

	// Move every wildcard rule's support: the loop must mine exactly once — the
	// swap's own epoch bump is covered by the run that caused it — then go back
	// to idling.
	do(t, "POST", ts.URL+"/v1/tuples", map[string]any{
		"values": []string{"01", "908", "3333333", "Zoe", "Tree Ave.", "MH", "07974"},
	}, http.StatusOK)
	if !waitFor(func() bool { return remineRuns(h) >= 1 }) {
		t.Fatal("no remine followed the insert")
	}
	time.Sleep(60 * time.Millisecond)
	if got := remineRuns(h); got != 1 {
		t.Fatalf("loop after one insert performed %d runs, want exactly 1", got)
	}
}

// TestRemineErrorRecorded: a remine that fails must land in /v1/health as
// the last run — outcome "error" plus the error string — not leave the
// previous success (or nothing) on display.
func TestRemineErrorRecorded(t *testing.T) {
	// No data: the remine refuses to mine an empty relation.
	eng, err := loadEngine(context.Background(), config{rulesPath: "testdata/rules.txt", schema: []string{"CC", "AC", "PN", "NM", "STR", "CT", "ZIP"}})
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(eng, nil, config{support: 2, maxLHS: 2})
	ts := httptest.NewServer(h.handler())
	t.Cleanup(ts.Close)

	out := do(t, "POST", ts.URL+"/v1/rules/remine?wait=1", nil, http.StatusOK)
	if msg, _ := out["error"].(string); out["outcome"] != "error" || msg == "" {
		t.Fatalf("failed remine result = %v", out)
	}
	health := do(t, "GET", ts.URL+"/v1/health", nil, http.StatusOK)
	last, ok := health["last_remine"].(map[string]any)
	if !ok {
		t.Fatalf("health after failed remine has no last_remine: %v", health)
	}
	if last["outcome"] != "error" {
		t.Fatalf("last_remine outcome = %v, want error", last["outcome"])
	}
	if msg, _ := last["error"].(string); msg == "" {
		t.Fatalf("last_remine must carry the error string: %v", last)
	}
	if got := h.obs.remineTotal.With("error").Value(); got != 1 {
		t.Fatalf("error outcome counter = %d, want 1", got)
	}

	// A failed run must not satisfy the maintenance loop: churn that drifts
	// support and leaves the relation empty keeps the trigger armed, so the
	// loop retries (and fails) every interval instead of going idle. Two tuples
	// go in before the loop starts, so its baseline holds them; the churn
	// takes both out in one atomic batch.
	row := []string{"01", "908", "1111111", "Mike", "Tree Ave.", "MH", "07974"}
	do(t, "POST", ts.URL+"/v1/batch", map[string]any{"ops": []map[string]any{
		{"op": "insert", "values": row}, {"op": "insert", "values": row},
	}}, http.StatusOK)
	runMonitor(t, h, anyDrift)
	do(t, "POST", ts.URL+"/v1/batch", map[string]any{"ops": []map[string]any{
		{"op": "delete", "id": 0}, {"op": "delete", "id": 1},
	}}, http.StatusOK)
	if !waitFor(func() bool { return h.obs.remineTotal.With("error").Value() >= 3 }) {
		t.Fatalf("loop stopped retrying after a failed remine (error count %d)", h.obs.remineTotal.With("error").Value())
	}
}

// TestRuleStatsServed: GET /v1/rules and /v1/health serve the live per-rule
// support/confidence derived from the engine counters.
func TestRuleStatsServed(t *testing.T) {
	ts, _ := newMaintainServer(t, config{support: 2, maxLHS: 2})

	rulesDoc := do(t, "GET", ts.URL+"/v1/rules", nil, http.StatusOK)
	stats, ok := rulesDoc["stats"].([]any)
	if !ok || len(stats) == 0 {
		t.Fatalf("GET /v1/rules must carry per-rule stats: %v", rulesDoc)
	}
	for _, raw := range stats {
		st := raw.(map[string]any)
		support := st["support"].(float64)
		violating := st["violating"].(float64)
		conf := st["confidence"].(float64)
		if st["rule"] == "" || support < violating || conf < 0 || conf > 1 {
			t.Fatalf("implausible rule stat %v", st)
		}
		want := 1.0
		if support > 0 {
			want = (support - violating) / support
		}
		if conf != want {
			t.Fatalf("stat %v: confidence %v, want %v", st, conf, want)
		}
	}

	health := do(t, "GET", ts.URL+"/v1/health", nil, http.StatusOK)
	hs, ok := health["rule_stats"].([]any)
	if !ok || len(hs) != len(stats) {
		t.Fatalf("health rule_stats = %v, want the same %d entries as /v1/rules", health["rule_stats"], len(stats))
	}

	// The fixture's constant rule ([AC] -> CT, (131 || EDI)) matches the
	// three AC=131 tuples, which form one CT-disagreeing group (EDI, EDI,
	// UN) — so support 3, 1 group, all 3 violating, confidence 0.
	found := false
	for _, raw := range stats {
		st := raw.(map[string]any)
		if st["rule"] == "([AC] -> CT, (131 || EDI))" {
			found = true
			if st["support"].(float64) != 3 || st["groups"].(float64) != 1 || st["violating"].(float64) != 3 {
				t.Fatalf("constant-rule stat = %v, want support 3 groups 1 violating 3", st)
			}
		}
	}
	if !found {
		t.Fatalf("fixture constant rule missing from stats: %v", stats)
	}
}

// TestHealthServesIndexStats: /v1/health lists each LHS set's index — its
// attributes, the root it refines if any, its tuples and π_X's groups by
// size — as the engine's IndexStats reports them. The fixture's two sets
// keep groups of their own; after a swap to two near-key sets sharing NM
// (seven names over eight tuples, Ian twice), both read their groups through
// a root on NM.
func TestHealthServesIndexStats(t *testing.T) {
	ts, h := newMaintainServer(t, config{})
	type entry struct {
		lhs                     string
		root                    string
		tuples, one, run, large float64
	}
	served := func() []entry {
		t.Helper()
		health := do(t, "GET", ts.URL+"/v1/health", nil, http.StatusOK)
		raw, ok := health["indexes"].([]any)
		if !ok {
			t.Fatalf("health carries no indexes: %v", health)
		}
		var out []entry
		for _, r := range raw {
			m := r.(map[string]any)
			e := entry{lhs: fmt.Sprint(m["lhs"]), tuples: m["tuples"].(float64),
				one: m["one"].(float64), run: m["run"].(float64), large: m["large"].(float64)}
			if root, ok := m["root"]; ok {
				e.root = root.(string)
			}
			out = append(out, e)
		}
		var want []entry
		for _, st := range h.eng.IndexStats() {
			want = append(want, entry{fmt.Sprint(st.LHS), st.Root, float64(st.Tuples), float64(st.One), float64(st.Run), float64(st.Large)})
		}
		if !slices.Equal(out, want) {
			t.Fatalf("health indexes %+v, engine IndexStats %+v", out, want)
		}
		return out
	}
	// ([AC] -> CT, (131 || EDI)) holds the three AC=131 tuples in one group;
	// ([CC,ZIP] -> STR) holds all eight in four groups, one of a single tuple.
	want := []entry{{"[AC]", "", 3, 0, 1, 0}, {"[CC ZIP]", "", 8, 1, 3, 0}}
	if got := served(); !slices.Equal(got, want) {
		t.Fatalf("fixture indexes %+v, want %+v", got, want)
	}
	doRaw(t, "PUT", ts.URL+"/v1/rules", "([PN,NM] -> STR, (_, _ || _))\n([NM,CT] -> ZIP, (_, _ || _))\n", http.StatusOK)
	want = []entry{{"[PN NM]", "NM", 8, 6, 1, 0}, {"[NM CT]", "NM", 8, 8, 0, 0}}
	if got := served(); !slices.Equal(got, want) {
		t.Fatalf("indexes after the swap %+v, want %+v", got, want)
	}
}

// TestMaintainEndToEnd wires the monitor exactly as main's -maintain path
// does and drives it over HTTP: idle server → zero remines; enough inserts
// to drift support → exactly one policy-triggered remine, visible in the
// cfd_maintain_* counters and the health maintain block.
func TestMaintainEndToEnd(t *testing.T) {
	ts, h := newMaintainServer(t, config{support: 2, maxLHS: 2})
	runMonitor(t, h, monitor.Policy{MaxSupportDrift: 0.25, MinSupport: 1})

	// The health maintain block is served as soon as the monitor is wired.
	health := do(t, "GET", ts.URL+"/v1/health", nil, http.StatusOK)
	if _, ok := health["maintain"].(map[string]any); !ok {
		t.Fatalf("health must serve the maintain status: %v", health)
	}

	// Idle: no triggers, no remines.
	time.Sleep(30 * time.Millisecond)
	if got := h.obs.maintainTriggers.With("drift").Value(); got != 0 {
		t.Fatalf("idle monitor triggered %d times", got)
	}
	if got := remineRuns(h); got != 0 {
		t.Fatalf("idle monitor remined %d times", got)
	}

	// Drift: the fixture loads 8 tuples, every rule has wildcard-free-ish
	// support near that; 3 inserts push support past the 25% envelope.
	for i := 0; i < 3; i++ {
		do(t, "POST", ts.URL+"/v1/tuples", map[string]any{
			"values": []string{"01", "908", "555000" + string(rune('1'+i)), "Zoe", "Tree Ave.", "MH", "07974"},
		}, http.StatusOK)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.obs.maintainTriggers.With("drift").Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := h.obs.maintainTriggers.With("drift").Value(); got == 0 {
		t.Fatal("drift past the policy never triggered a remine")
	}
	deadline = time.Now().Add(5 * time.Second)
	for remineRuns(h) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := remineRuns(h); got == 0 {
		t.Fatal("the triggered remine never ran")
	}
	if got := h.obs.maintainChecks.Value(); got == 0 {
		t.Fatal("policy evaluations were not counted")
	}

	health = do(t, "GET", ts.URL+"/v1/health", nil, http.StatusOK)
	maintain := health["maintain"].(map[string]any)
	if maintain["triggers"].(float64) < 1 {
		t.Fatalf("health maintain block after trigger = %v", maintain)
	}
	if lt, ok := maintain["last_trigger"].(map[string]any); !ok || lt["reason"] != "drift" {
		t.Fatalf("health last_trigger = %v, want a drift trigger", maintain["last_trigger"])
	}
}
