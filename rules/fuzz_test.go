package rules_test

import (
	"encoding/json"
	"testing"

	"repro/rules"
)

// FuzzJSON checks that the Set JSON codec is a closed pair, the same
// contract FuzzParse pins for the cfd text codec: any document UnmarshalJSON
// accepts must marshal to a document that unmarshals back to the same set —
// same rules in the same order, same provenance — and the rendering must be
// canonical (a second marshal is byte-identical). This is the round trip
// GET /rules → PUT /rules / -rules flags rely on. Every accepted set must also
// hold each rule once (no two rules share a canonical key), and its rule-file
// rendering must parse back to the same fingerprint, which holds the text
// codec to the JSON one.
func FuzzJSON(f *testing.F) {
	f.Add(`{"rules":["([CC,AC] -> CT, (01, _ || MH))","([ZIP] -> STR, (_ || _))"]}`)
	f.Add(`{"provenance":{"algorithm":"ctane","support":5,"tuples":100,"attributes":7,"elapsed_ns":12345},"rules":["([A] -> B, (_ || _))"]}`)
	f.Add(`{"rules":[]}`)
	f.Add(`{"rules":["([\"a,b\"] -> B, (\"x(\" || \"y,z\"))"]}`)
	f.Add(`{"attributes":["A","B"],"ruleset":{"rules":["([A] -> B, (_ || _))"]}}`)
	f.Add(`{"rules":["([A] -> B, (_ || _))","([A] -> B, (_ || _))"]}`)
	f.Add(`{"rules":["(bogus"]}`)
	f.Add(`{"tableaux":[{"lhs":["A"],"rhs":"B","patterns":[["_","_"]]}],"rules":["([A] -> B, (_ || _))"]}`)
	// The duplicate seed above, with the copy's LHS reordered.
	f.Add(`{"rules":["([A,C] -> B, (x, _ || _))","([C,A] -> B, (_, x || _))"]}`)
	f.Fuzz(func(t *testing.T, doc string) {
		var set rules.Set
		if err := json.Unmarshal([]byte(doc), &set); err != nil {
			t.Skip()
		}
		keys := make(map[string]bool, set.Len())
		for _, c := range set.CFDs() {
			k := c.Normalize().String()
			if keys[k] {
				t.Fatalf("accepted %q holds %s twice", doc, k)
			}
			keys[k] = true
		}
		text, err := rules.Parse(set.Text())
		if err != nil {
			t.Fatalf("rule file of %q does not parse: %v", doc, err)
		}
		if text.Fingerprint() != set.Fingerprint() {
			t.Fatalf("rule file of %q parses to another fingerprint:\n%s", doc, set.Text())
		}
		data, err := json.Marshal(&set)
		if err != nil {
			t.Fatalf("accepted %q but cannot marshal the result: %v", doc, err)
		}
		var back rules.Set
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("own rendering %s does not unmarshal: %v", data, err)
		}
		if back.Len() != set.Len() {
			t.Fatalf("round trip changed the rule count: %d vs %d (doc %q)", back.Len(), set.Len(), doc)
		}
		for i, c := range set.CFDs() {
			if !back.CFDs()[i].Equal(c) {
				t.Fatalf("round trip changed rule %d: %s vs %s (doc %q)", i, back.CFDs()[i], c, doc)
			}
		}
		if back.Provenance() != set.Provenance() {
			t.Fatalf("round trip changed provenance: %+v vs %+v (doc %q)", back.Provenance(), set.Provenance(), doc)
		}
		if back.Fingerprint() != set.Fingerprint() {
			t.Fatalf("round trip changed the fingerprint (doc %q)", doc)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(data) {
			t.Fatalf("marshal is not canonical:\n%s\nthen\n%s", data, again)
		}
	})
}
