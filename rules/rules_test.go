package rules_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/cfd"
	"repro/rules"
)

func custRules() []cfd.CFD {
	constant, err := cfd.Parse("([AC] -> CT, (131 || EDI))")
	if err != nil {
		panic(err)
	}
	return []cfd.CFD{
		constant,
		cfd.NewFD([]string{"CC", "ZIP"}, "STR"),
		cfd.NewFD([]string{"CC", "AC"}, "CT"),
	}
}

func prov() rules.Provenance {
	return rules.Provenance{Algorithm: "ctane", Support: 2, Tuples: 8, Attributes: 7, Elapsed: 3 * time.Millisecond}
}

func TestSetBasics(t *testing.T) {
	s := rules.New(custRules(), prov())
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Constant() != 1 || s.Variable() != 2 {
		t.Fatalf("classes = (%d, %d), want (1, 2)", s.Constant(), s.Variable())
	}
	if got := s.Provenance(); got != prov() {
		t.Fatalf("provenance = %+v", got)
	}
	// Set order is preserved.
	if s.CFDs()[0].RHSPattern != "EDI" {
		t.Fatalf("first rule = %s", s.CFDs()[0])
	}
	// Tableaux group by embedded FD: ([AC]->CT) and ([CC,AC]->CT) differ,
	// so three rules make three tableaux here.
	if got := len(s.Tableaux()); got != 3 {
		t.Fatalf("%d tableaux", got)
	}
}

func TestNilSetIsEmpty(t *testing.T) {
	var s *rules.Set
	if s.Len() != 0 || s.CFDs() != nil || s.Constant() != 0 || s.Variable() != 0 || s.Tableaux() != nil {
		t.Fatal("nil set must behave as empty")
	}
	if !s.Provenance().IsZero() {
		t.Fatal("nil set must have zero provenance")
	}
}

func TestTextRoundTrip(t *testing.T) {
	s := rules.New(custRules(), prov())
	text := s.Text()
	if !strings.HasPrefix(text, "# ctane on 8 tuples x 7 attributes, k=2: 3 CFDs (1 constant, 2 variable) in 3ms\n") {
		t.Fatalf("header = %q", strings.SplitN(text, "\n", 2)[0])
	}
	back, err := rules.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 || back.Constant() != 1 || back.Variable() != 2 {
		t.Fatalf("round trip: %d rules (%d constant, %d variable)", back.Len(), back.Constant(), back.Variable())
	}
	if got := back.Provenance(); got != prov() {
		t.Fatalf("provenance after text round trip = %+v, want %+v", got, prov())
	}
	// The rendered rules agree as sets.
	want := keys(s.CFDs())
	if got := keys(back.CFDs()); !reflect.DeepEqual(got, want) {
		t.Fatalf("rules after round trip = %v, want %v", got, want)
	}
}

// TestTextOrderIndependentOfSetOrder pins the rule file's bytes: whatever
// order the set holds its rules in — canonical already (the order Engine.Run
// hands over, which Text must not pay to sort again) or shuffled — the body is
// the rules rendered in the order of a copy sorted with the per-comparison
// comparator SortCFDs used to be. The pool lists some rules a second time with
// their LHS reversed; the set holds each once, the first listing kept.
func TestTextOrderIndependentOfSetOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := []string{"A1", "A10", "A2", "B", "a"}
	values := []string{cfd.Wildcard, "1", "10", "2", "x y"}
	var pool []cfd.CFD
	for i := 0; i < 60; i++ {
		rhs := rng.Intn(len(names))
		c := cfd.CFD{RHS: names[rhs], RHSPattern: values[rng.Intn(len(values))]}
		for _, a := range rng.Perm(len(names)) {
			if a != rhs && rng.Intn(2) == 0 {
				c.LHS = append(c.LHS, names[a])
				c.LHSPattern = append(c.LHSPattern, values[rng.Intn(len(values))])
			}
		}
		pool = append(pool, c)
		if len(c.LHS) > 1 && rng.Intn(2) == 0 { // the same rule, listed in reverse
			r := cfd.CFD{RHS: c.RHS, RHSPattern: c.RHSPattern}
			for j := len(c.LHS) - 1; j >= 0; j-- {
				r.LHS = append(r.LHS, c.LHS[j])
				r.LHSPattern = append(r.LHSPattern, c.LHSPattern[j])
			}
			pool = append(pool, r)
		}
	}
	reference := func(cfds []cfd.CFD) string {
		sorted := append([]cfd.CFD(nil), cfds...)
		sort.Slice(sorted, func(i, j int) bool {
			return sorted[i].Normalize().String() < sorted[j].Normalize().String()
		})
		return cfd.FormatAll(sorted)
	}
	body := func(s *rules.Set) string { return strings.SplitN(s.Text(), "\n", 2)[1] }

	firsts := func(cfds []cfd.CFD) []cfd.CFD {
		var out []cfd.CFD
		seen := make(map[string]bool)
		for _, c := range cfds {
			if k := c.Normalize().String(); !seen[k] {
				seen[k] = true
				out = append(out, c)
			}
		}
		return out
	}
	canonical := append([]cfd.CFD(nil), pool...)
	cfd.SortCFDs(canonical)
	for name, in := range map[string][]cfd.CFD{"shuffled": pool, "canonical": canonical, "empty": nil} {
		set := rules.Of(in...)
		want := firsts(in)
		if got := body(set); got != reference(want) {
			t.Errorf("%s: Text body differs from the sorted rendering:\n got %q\nwant %q", name, got, reference(want))
		}
		if !reflect.DeepEqual(set.CFDs(), want) {
			t.Errorf("%s: the set is not the input's first listings in input order", name)
		}
	}
}

func TestTextHeaderWithoutProvenance(t *testing.T) {
	s := rules.Of(custRules()...)
	if !strings.HasPrefix(s.Text(), "# rules on 0 tuples") {
		t.Fatalf("header = %q", strings.SplitN(s.Text(), "\n", 2)[0])
	}
	back, err := rules.Parse(s.Text())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 {
		t.Fatalf("round trip lost rules: %d", back.Len())
	}
	// The placeholder header must not be mistaken for real provenance: a
	// hand-built set stays provenance-less through a text round trip.
	if !back.Provenance().IsZero() {
		t.Fatalf("text round trip fabricated provenance: %+v", back.Provenance())
	}
}

// TestParseServeEnvelope checks the GET /rules round trip: the full envelope
// cfdserve serves ({"attributes": ..., "ruleset": {...}}) parses into the
// contained rule set, while JSON objects carrying no rules at all are
// rejected instead of silently yielding an empty set.
func TestParseServeEnvelope(t *testing.T) {
	s := rules.New(custRules(), prov())
	inner, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	envelope, err := json.Marshal(map[string]any{
		"attributes": []string{"CC", "AC", "PN", "NM", "STR", "CT", "ZIP"},
		"ruleset":    json.RawMessage(inner),
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := rules.Parse(string(envelope))
	if err != nil {
		t.Fatalf("the GET /rules envelope must parse: %v", err)
	}
	if back.Len() != 3 || back.Provenance() != prov() {
		t.Fatalf("envelope round trip: %d rules, provenance %+v", back.Len(), back.Provenance())
	}
	for _, bogus := range []string{`{}`, `{"violations": []}`, `{"ruleset": {}}`, `{"ruleset": null}`, `{"ruleset": 5}`,
		`{"ruleset": {"ruleset": {"rules": ["([A] -> B, (_ || _))"]}}}`} {
		if _, err := rules.Parse(bogus); err == nil {
			t.Errorf("JSON without a rules array one envelope deep must be rejected: %s", bogus)
		}
	}
	// An explicitly empty rule set is still valid.
	empty, err := rules.Parse(`{"rules": []}`)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty rule array: set %v, err %v", empty, err)
	}
}

// nestedRuleset is a JSON document of depth "ruleset" envelopes around an
// empty rule set padded to about size bytes — the hostile PUT /v1/rules body
// that once cost a scan and a copy of the whole document per level.
func nestedRuleset(depth, size int) string {
	var b strings.Builder
	b.WriteString(strings.Repeat(`{"ruleset":`, depth))
	b.WriteString(`{"rules":[],"padding":"`)
	b.WriteString(strings.Repeat("x", max(size-12*depth-30, 0)))
	b.WriteString(`"}`)
	b.WriteString(strings.Repeat("}", depth))
	return b.String()
}

// TestParseNestedEnvelopeFast: a 1 MiB document nested 1000 envelopes deep is
// refused, and in well under a second — at 1,000 levels the recursion it
// replaced took 21 s and a gigabyte, and returned an empty set.
func TestParseNestedEnvelopeFast(t *testing.T) {
	doc := nestedRuleset(1000, 1<<20)
	start := time.Now()
	if set, err := rules.Parse(doc); err == nil {
		t.Fatalf("a nested envelope parsed, into %d rules", set.Len())
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("refusing a 1 MiB, 1000-deep envelope took %v", elapsed)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := rules.New(custRules(), prov())
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	// The wire form carries the derived views for consumers.
	var wire map[string]any
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if wire["constant"].(float64) != 1 || wire["variable"].(float64) != 2 {
		t.Fatalf("wire counts = %v", wire)
	}
	if len(wire["rules"].([]any)) != 3 || len(wire["tableaux"].([]any)) != 3 {
		t.Fatalf("wire rules/tableaux = %v", wire)
	}
	if wire["provenance"].(map[string]any)["algorithm"] != "ctane" {
		t.Fatalf("wire provenance = %v", wire["provenance"])
	}

	back, err := rules.Parse(string(data))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 || back.Provenance() != prov() {
		t.Fatalf("JSON round trip: %d rules, provenance %+v", back.Len(), back.Provenance())
	}
	// Rule order is preserved exactly by the JSON codec.
	for i, c := range back.CFDs() {
		if !c.Equal(s.CFDs()[i]) {
			t.Fatalf("rule %d changed: %s vs %s", i, c, s.CFDs()[i])
		}
	}
}

func TestLoadSniffsFormats(t *testing.T) {
	s := rules.New(custRules(), prov())
	dir := t.TempDir()

	textPath := filepath.Join(dir, "rules.txt")
	if err := s.Save(textPath); err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "rules.json")
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(jsonPath, data); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{textPath, jsonPath} {
		got, err := rules.Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got.Len() != 3 || got.Provenance() != prov() {
			t.Fatalf("%s: %d rules, provenance %+v", path, got.Len(), got.Provenance())
		}
	}
	if _, err := rules.Load(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing file must error")
	}
	if _, err := rules.Parse("{not json"); err == nil {
		t.Fatal("malformed JSON must error")
	}
	if _, err := rules.Parse("([A] -> , broken"); err == nil {
		t.Fatal("malformed rule file must error")
	}
}

// TestConcurrentLazyViews exercises the lazily computed views from many
// goroutines, as cfdserve's handlers do under its read lock.
func TestConcurrentLazyViews(t *testing.T) {
	s := rules.New(custRules(), prov())
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.Constant() != 1 || s.Variable() != 2 || len(s.Tableaux()) != 3 {
				t.Error("derived views wrong under concurrency")
			}
			if _, err := json.Marshal(s); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func keys(cfds []cfd.CFD) map[string]bool {
	m := make(map[string]bool, len(cfds))
	for _, c := range cfds {
		m[c.Normalize().String()] = true
	}
	return m
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestSetCollapsesDuplicates pins the Set invariant on every constructor: a
// rule repeated verbatim or with its LHS reordered is held once, the first
// occurrence kept in set order.
func TestSetCollapsesDuplicates(t *testing.T) {
	fd := cfd.NewFD([]string{"CC", "AC"}, "CT")
	reordered := cfd.NewFD([]string{"AC", "CC"}, "CT")
	other := cfd.NewFD([]string{"ZIP"}, "STR")
	want := []cfd.CFD{fd, other}
	check := func(name string, s *rules.Set) {
		t.Helper()
		if s.Len() != len(want) {
			t.Fatalf("%s: %d rules %v, want %v", name, s.Len(), s.CFDs(), want)
		}
		for i, c := range s.CFDs() {
			if c.String() != want[i].String() {
				t.Fatalf("%s: rule %d = %s, want %s (first occurrence, set order)", name, i, c, want[i])
			}
		}
		if s.Fingerprint() != rules.Of(want...).Fingerprint() {
			t.Fatalf("%s: fingerprint counts a duplicate", name)
		}
	}
	check("New", rules.New([]cfd.CFD{fd, reordered, other, fd}, prov()))
	check("Of", rules.Of(fd, fd, other, reordered))

	text := "# hand-written\n" + fd.String() + "\n" + reordered.String() + "\n" + other.String() + "\n" + fd.String() + "\n"
	parsed, err := rules.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	check("Parse(text)", parsed)

	doc, err := json.Marshal(map[string][]string{"rules": {fd.String(), reordered.String(), other.String(), fd.String()}})
	if err != nil {
		t.Fatal(err)
	}
	var decoded rules.Set
	if err := json.Unmarshal(doc, &decoded); err != nil {
		t.Fatal(err)
	}
	check("UnmarshalJSON", &decoded)
	fromJSON, err := rules.Parse(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	check("Parse(JSON)", fromJSON)
}
