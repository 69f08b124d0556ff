package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/rules"
)

// newTestServer builds the server exactly as main does, from the testdata
// fixtures (the cust relation of Fig. 1 and two rules over it).
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng, err := loadEngine(context.Background(), config{
		rulesPath: "testdata/rules.txt",
		dataPath:  "testdata/cust.csv",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, nil, config{support: 2, maxLHS: 2}).handler())
	t.Cleanup(ts.Close)
	return ts
}

func do(t *testing.T, method, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
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

func ints(t *testing.T, v any) []int {
	t.Helper()
	raw, ok := v.([]any)
	if !ok {
		t.Fatalf("expected array, got %T", v)
	}
	out := make([]int, len(raw))
	for i, x := range raw {
		out[i] = int(x.(float64))
	}
	return out
}

func TestServeEndToEnd(t *testing.T) {
	ts := newTestServer(t)

	// Health: 8 tuples, 2 rules, violations present.
	health := do(t, "GET", ts.URL+"/v1/health", nil, http.StatusOK)
	if health["status"] != "ok" || health["tuples"].(float64) != 8 || health["rules"].(float64) != 2 {
		t.Fatalf("health = %v", health)
	}
	if health["dirty"].(float64) == 0 {
		t.Fatal("fixture data must be dirty")
	}

	// Rules are served as rules.Set JSON: file order preserved, class counts
	// and pattern tableaux included, plus the serving schema.
	rulesResp := do(t, "GET", ts.URL+"/v1/rules", nil, http.StatusOK)
	if got := rulesResp["attributes"].([]any); len(got) != 7 || got[0] != "CC" {
		t.Fatalf("attributes = %v", got)
	}
	ruleset := rulesResp["ruleset"].(map[string]any)
	if got := ruleset["rules"].([]any); len(got) != 2 || got[0] != "([AC] -> CT, (131 || EDI))" {
		t.Fatalf("rules = %v", got)
	}
	if ruleset["constant"].(float64) != 1 || ruleset["variable"].(float64) != 1 {
		t.Fatalf("class counts = %v", ruleset)
	}
	if got := ruleset["tableaux"].([]any); len(got) != 2 {
		t.Fatalf("tableaux = %v", got)
	}
	// The served document round-trips back into a rule set.
	raw, err := json.Marshal(ruleset)
	if err != nil {
		t.Fatal(err)
	}
	back, err := rules.Parse(string(raw))
	if err != nil {
		t.Fatalf("GET /rules output does not parse back: %v", err)
	}
	if back.Len() != 2 {
		t.Fatalf("round-tripped rule set has %d rules", back.Len())
	}

	// Violations: the constant rule flags the AC=131 group {4,5,7}; the FD
	// flags the CC/ZIP groups {0,1,3} and {2,7}.
	viol := do(t, "GET", ts.URL+"/v1/violations", nil, http.StatusOK)
	if got := ints(t, viol["dirty"]); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5, 7}) {
		t.Fatalf("dirty = %v", got)
	}
	vlist := viol["violations"].([]any)
	if len(vlist) != 2 {
		t.Fatalf("violations = %v", vlist)
	}
	first := vlist[0].(map[string]any)
	if !reflect.DeepEqual(ints(t, first["tuples"]), []int{4, 5, 7}) {
		t.Fatalf("constant-rule tuples = %v", first["tuples"])
	}

	// Suspects are sharper than the dirty set: Sean (7) violates the constant
	// rule on his own and holds minority street values.
	suspects := do(t, "GET", ts.URL+"/v1/suspects", nil, http.StatusOK)
	sus := ints(t, suspects["suspects"])
	if len(sus) == 0 || len(sus) >= 7 {
		t.Fatalf("suspects = %v, want a non-empty strict subset of the dirty set", sus)
	}

	// Per-tuple lookup: tuple 7 violates both rules, tuple 6 neither.
	t7 := do(t, "GET", ts.URL+"/v1/tuples/7/violations", nil, http.StatusOK)
	if got := t7["violated"].([]any); len(got) != 2 {
		t.Fatalf("tuple 7 violates %v, want both rules", got)
	}
	t6 := do(t, "GET", ts.URL+"/v1/tuples/6/violations", nil, http.StatusOK)
	if got := t6["violated"].([]any); len(got) != 0 {
		t.Fatalf("tuple 6 violates %v, want none", got)
	}

	// Insert a batch: Ann joins the (01, 01202) street group (still split two
	// ways) and one clean tuple.
	ins := do(t, "POST", ts.URL+"/v1/tuples", map[string]any{"rows": [][]string{
		{"01", "212", "9999999", "Ann", "5th Ave", "NYC", "01202"},
		{"86", "10", "8888888", "Wei", "Main Rd.", "BJ", "100000"},
	}}, http.StatusOK)
	if got := ints(t, ins["ids"]); !reflect.DeepEqual(got, []int{8, 9}) {
		t.Fatalf("insert ids = %v", got)
	}
	viol = do(t, "GET", ts.URL+"/v1/violations", nil, http.StatusOK)
	if got := ints(t, viol["dirty"]); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5, 7, 8}) {
		t.Fatalf("dirty after insert = %v", got)
	}

	// Update: repairing Sean's city still leaves his street in the minority.
	do(t, "PUT", ts.URL+"/v1/tuples/7", map[string]any{
		"values": []string{"01", "131", "2222222", "Sean", "3rd Str.", "EDI", "01202"},
	}, http.StatusOK)
	t7 = do(t, "GET", ts.URL+"/v1/tuples/7/violations", nil, http.StatusOK)
	if got := t7["violated"].([]any); len(got) != 1 {
		t.Fatalf("tuple 7 violates %v after city repair, want the FD only", got)
	}

	// Delete the two street deviants; the FD heals for their groups.
	do(t, "DELETE", ts.URL+"/v1/tuples/7", nil, http.StatusOK)
	do(t, "DELETE", ts.URL+"/v1/tuples/8", nil, http.StatusOK)
	viol = do(t, "GET", ts.URL+"/v1/violations", nil, http.StatusOK)
	if got := ints(t, viol["dirty"]); !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Fatalf("dirty after deletes = %v", got)
	}

	// Reading a deleted tuple 404s.
	if out := do(t, "GET", ts.URL+"/v1/tuples/7", nil, http.StatusNotFound); out["error"] == "" {
		t.Fatal("expected an error body")
	}
	// A well-formed insert with the wrong arity is 422 unprocessable.
	do(t, "POST", ts.URL+"/v1/tuples", map[string]any{"values": []string{"too", "short"}}, http.StatusUnprocessableEntity)
	// Updating a live tuple with the wrong arity 422s; a deleted id 404s.
	do(t, "PUT", ts.URL+"/v1/tuples/0", map[string]any{"values": []string{"too", "short"}}, http.StatusUnprocessableEntity)
	do(t, "PUT", ts.URL+"/v1/tuples/7", map[string]any{"values": []string{"a", "b", "c", "d", "e", "f", "g"}}, http.StatusNotFound)
}

func TestServeSampleDiscovery(t *testing.T) {
	// Rules discovered on the fixture data itself: the engine starts serving
	// whatever FastCFD finds, with the same relation bulk loaded.
	eng, err := loadEngine(context.Background(), config{
		samplePath: "testdata/cust.csv",
		dataPath:   "testdata/cust.csv",
		support:    2,
		maxLHS:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.Rules()) == 0 {
		t.Fatal("sample discovery found no rules")
	}
	if eng.Size() != 8 {
		t.Fatalf("loaded %d tuples, want 8", eng.Size())
	}
}

// TestLoadEngineJSONRules checks the -rules format sniffing: the engine loads
// a rules.Set JSON document (as served by GET /rules) interchangeably with
// the text rule file.
func TestLoadEngineJSONRules(t *testing.T) {
	fromText, err := rules.Load("testdata/rules.txt")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(fromText)
	if err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(t.TempDir(), "rules.json")
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := loadEngine(context.Background(), config{rulesPath: jsonPath, dataPath: "testdata/cust.csv"})
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.Rules()) != 2 || eng.Size() != 8 {
		t.Fatalf("JSON rules: %d rules, %d tuples", len(eng.Rules()), eng.Size())
	}
}

// TestSampleDiscoveryProvenance checks that a sample-discovered rule set
// carries its discovery provenance through to the serving engine.
func TestSampleDiscoveryProvenance(t *testing.T) {
	eng, err := loadEngine(context.Background(), config{samplePath: "testdata/cust.csv", support: 2, maxLHS: 2})
	if err != nil {
		t.Fatal(err)
	}
	prov := eng.RuleSet().Provenance()
	if prov.Algorithm != "fastcfd" || prov.Support != 2 || prov.Tuples != 8 {
		t.Fatalf("provenance = %+v", prov)
	}
}

func TestLoadEngineErrors(t *testing.T) {
	if _, err := loadEngine(context.Background(), config{}); err == nil {
		t.Error("missing rules and sample must error")
	}
	if _, err := loadEngine(context.Background(), config{rulesPath: "testdata/rules.txt"}); err == nil {
		t.Error("missing schema must error")
	}
	if _, err := loadEngine(context.Background(), config{rulesPath: "testdata/rules.txt", schema: []string{"A", "B"}}); err == nil {
		t.Error("rules over unknown attributes must error")
	}
	if _, err := loadEngine(context.Background(), config{rulesPath: "testdata/missing.txt", dataPath: "testdata/cust.csv"}); err == nil {
		t.Error("missing rule file must error")
	}
}

func Example_quickstart() {
	eng, err := loadEngine(context.Background(), config{rulesPath: "testdata/rules.txt", dataPath: "testdata/cust.csv"})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d rules, %d tuples, %d dirty\n", len(eng.Rules()), eng.Size(), len(eng.Dirty()))
	// Output:
	// 2 rules, 8 tuples, 7 dirty
}
