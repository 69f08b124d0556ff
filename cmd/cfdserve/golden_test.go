package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/cfd"
	"repro/dataset"
	"repro/rules"
	"repro/violation"
)

// goldenRulesA is the rule set testdata/golden_format2 was booted with; the swap
// record in its WAL replaces it with goldenRulesB. Both are spelled out here
// — not read back from the fixture — so the fixture and this test check each
// other.
func goldenRulesA() *rules.Set {
	return rules.Of(
		cfd.CFD{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"131"}, RHSPattern: "EDI"},
		cfd.NewFD([]string{"CC", "ZIP"}, "STR"),
		cfd.CFD{LHS: []string{"CC"}, RHS: "CT", LHSPattern: []string{"_"}, RHSPattern: "MH"},
	)
}

func goldenRulesB() *rules.Set {
	return rules.Of(
		cfd.NewFD([]string{"CC", "ZIP"}, "STR"),
		cfd.NewFD([]string{"AC"}, "CT"),
		cfd.CFD{LHS: []string{"CC"}, RHS: "CT", LHSPattern: []string{"99"}, RHSPattern: "XXX"},
		cfd.CFD{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"131"}, RHSPattern: "EDI"},
	)
}

// goldenOps replays, against a fresh engine, the exact mutation sequence the
// golden_format2 fixture generator ran: one mixed batch, a live rule swap, and a
// second batch with unicode and separator-bearing values (WAL seq 1..3).
func goldenOps(t *testing.T, eng *violation.Engine) {
	t.Helper()
	if _, err := eng.ApplyBatch([]violation.Op{
		{Kind: violation.OpInsert, Values: []string{"01", "908", "9999999", "Zoe", "Tree Ave.", "MH", "07974"}},
		{Kind: violation.OpInsert, Values: []string{"44", "131", "5555555", "Amy", "High St.", "GLA", "EH4 1DT"}},
		{Kind: violation.OpUpdate, ID: 3, Values: []string{"01", "908", "1111111", "Jim", "Oak Ave.", "MH", "07974"}},
		{Kind: violation.OpDelete, ID: 6},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SwapRules(context.Background(), goldenRulesB()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyBatch([]violation.Op{
		{Kind: violation.OpInsert, Values: []string{"66", "020", "7777777", "Ada — ünïcode", "a|b", "LDN", "N1"}},
		{Kind: violation.OpUpdate, ID: 8, Values: []string{"01", "212", "9999999", "Zoe", "5th Ave", "NYC", "01202"}},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenV1CrossLayout is the cross-layout differential check on the /v1
// read surface: engine A is restored from testdata/golden_format2 — a state
// directory (format 2 snapshot of the 8 cust tuples plus a 3-record WAL)
// written by the build that still kept the engine's rows in its own table
// type, before core.Relation became the one tuple store — while engine B is
// a fresh engine driven through the identical boot and op sequence. Every
// read endpoint, paginated ones page by page, must serve byte-identical
// bodies (epoch included) from both, and compacting either must write the
// snapshot bytes that older build wrote for the same state
// (compacted.json: a hole at id 6, dead dictionary entries dropped).
func TestGoldenV1CrossLayout(t *testing.T) {
	// The checked-in fixture is copied into a temp dir: opening a store drops
	// a LOCK file and compaction could rewrite it, and testdata must stay the
	// pre-refactor bytes.
	dirA := t.TempDir()
	for _, name := range []string{"snapshot.json", "wal.jsonl"} {
		data, err := os.ReadFile(filepath.Join("testdata", "golden_format2", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dirA, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stA, err := violation.OpenStore(dirA, violation.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stA.Close() })
	engA, found, err := stA.Load(violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("golden_format2 snapshot not found")
	}
	engA.AttachWAL(stA)
	// Fixture integrity: the generator ended at WAL seq 3 with 10 live tuples.
	if engA.Epoch() != 3 || engA.Size() != 10 {
		t.Fatalf("golden_format2 restored to epoch %d size %d, want 3 and 10", engA.Epoch(), engA.Size())
	}

	rel := dataset.Cust()
	engB, err := violation.New(rel.Attributes(), goldenRulesA(), violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := engB.BulkLoad(rel); err != nil {
		t.Fatal(err)
	}
	dirB := t.TempDir()
	stB, err := violation.OpenStore(dirB, violation.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stB.Close() })
	if err := stB.Compact(engB); err != nil {
		t.Fatal(err)
	}
	engB.AttachWAL(stB)
	goldenOps(t, engB)

	tsA := httptest.NewServer(newServer(engA, stA, config{compactEvery: 4096}).handler())
	defer tsA.Close()
	tsB := httptest.NewServer(newServer(engB, stB, config{compactEvery: 4096}).handler())
	defer tsB.Close()

	for _, path := range []string{
		"/v1/violations",
		"/v1/rules",
		"/v1/suspects",
		"/v1/tuples",
		"/v1/tuples/8",
		"/v1/tuples/8/violations",
	} {
		a, b := getRaw(t, tsA.URL+path), getRaw(t, tsB.URL+path)
		if string(a) != string(b) {
			t.Errorf("GET %s diverges across layouts\nrestored: %s\nfresh:    %s", path, a, b)
		}
	}
	// Paginated reads must agree page by page, cursors included.
	for _, base := range []string{"/v1/suspects?limit=2", "/v1/tuples?limit=3"} {
		pa, pb := goldenPages(t, tsA.URL, base), goldenPages(t, tsB.URL, base)
		if len(pa) != len(pb) {
			t.Fatalf("GET %s: %d pages from the restored engine, %d from the fresh one", base, len(pa), len(pb))
		}
		if len(pa) < 2 {
			t.Fatalf("GET %s returned %d page(s); the fixture should need several", base, len(pa))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Errorf("GET %s page %d diverges\nrestored: %s\nfresh:    %s", base, i, pa[i], pb[i])
			}
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_format2", "compacted.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		st   *violation.Store
		eng  *violation.Engine
		dir  string
	}{{"restored", stA, engA, dirA}, {"fresh", stB, engB, dirB}} {
		if err := c.st.Compact(c.eng); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(c.dir, "snapshot.json"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("the %s engine compacts to different snapshot bytes\ngot:  %s\nwant: %s", c.name, got, want)
		}
	}
}

// goldenPages walks a paginated endpoint to exhaustion via next_cursor and
// returns the raw page bodies.
func goldenPages(t *testing.T, serverURL, base string) []string {
	t.Helper()
	var pages []string
	url := base
	for {
		body := getRaw(t, serverURL+url)
		pages = append(pages, string(body))
		var doc struct {
			NextCursor string `json:"next_cursor"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		if doc.NextCursor == "" {
			return pages
		}
		url = base + "&cursor=" + doc.NextCursor
	}
}
