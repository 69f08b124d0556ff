package discovery_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/cfd"
	"repro/dataset"
	"repro/discovery"
	"repro/internal/fixture"
	"repro/rules"
)

func cust() *cfd.Relation { return dataset.Cust() }

// mine runs one algorithm to its full cover, failing the test on error.
func mine(t *testing.T, alg discovery.Algorithm, r *cfd.Relation, opts ...discovery.Option) *rules.Set {
	t.Helper()
	set, err := discovery.NewEngine(alg, r, opts...).Run(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	return set
}

func keys(cfds []cfd.CFD) map[string]bool {
	m := make(map[string]bool, len(cfds))
	for _, c := range cfds {
		m[c.Normalize().String()] = true
	}
	return m
}

func TestDiscoverAllAlgorithmsRun(t *testing.T) {
	r := cust()
	for _, alg := range discovery.Algorithms() {
		set := mine(t, alg, r, discovery.WithSupport(2))
		if p := set.Provenance(); p.Algorithm != string(alg) || p.Support != 2 {
			t.Errorf("%s: provenance wrong: %+v", alg, p)
		}
		if set.Constant()+set.Variable() != set.Len() {
			t.Errorf("%s: class counts do not add up", alg)
		}
		if alg != discovery.AlgTANE && alg != discovery.AlgFastFD && set.Len() == 0 {
			t.Errorf("%s: expected some CFDs on cust", alg)
		}
	}
	if _, err := discovery.NewEngine("nope", r).Run(context.Background()); err == nil {
		t.Error("unknown algorithm must error")
	}
}

// TestGeneralAlgorithmsAgree verifies that CTANE, FastCFD, NaiveFast and the
// brute-force oracle produce the same cover through the public API.
func TestGeneralAlgorithmsAgree(t *testing.T) {
	r := cust()
	for _, k := range []int{2, 3} {
		want := keys(mine(t, discovery.AlgBrute, r, discovery.WithSupport(k)).CFDs())
		for _, alg := range []discovery.Algorithm{discovery.AlgCTANE, discovery.AlgFastCFD, discovery.AlgNaiveFast} {
			got := keys(mine(t, alg, r, discovery.WithSupport(k)).CFDs())
			if len(got) != len(want) {
				t.Errorf("k=%d %s: %d CFDs, brute force %d", k, alg, len(got), len(want))
			}
			for s := range want {
				if !got[s] {
					t.Errorf("k=%d %s: missing %s", k, alg, s)
				}
			}
			for s := range got {
				if !want[s] {
					t.Errorf("k=%d %s: spurious %s", k, alg, s)
				}
			}
		}
	}
}

// TestCFDMinerSubsetOfFastCFD verifies constant CFDs from CFDMiner are exactly
// the constant-classified CFDs of FastCFD.
func TestCFDMinerSubsetOfFastCFD(t *testing.T) {
	r := cust()
	miner := mine(t, discovery.AlgCFDMiner, r, discovery.WithSupport(2))
	full := mine(t, discovery.AlgFastCFD, r, discovery.WithSupport(2))
	if miner.Variable() != 0 {
		t.Errorf("CFDMiner reported %d variable CFDs", miner.Variable())
	}
	fullKeys := keys(full.CFDs())
	for _, c := range miner.CFDs() {
		if !fullKeys[c.Normalize().String()] {
			t.Errorf("CFDMiner CFD missing from FastCFD output: %s", c)
		}
	}
	if miner.Constant() != full.Constant() {
		t.Errorf("constant counts differ: CFDMiner %d, FastCFD %d", miner.Constant(), full.Constant())
	}
}

// TestResultsAreMinimalOnRelation holds the covers to §2 straight from the
// definitions, not through another miner: on cust and on the repo benchmark's
// two shapes at quick scale, every rule CTANE and FastCFD report is satisfied
// and left-reduced (IsMinimal: dropping any LHS attribute, or generalising any
// LHS constant, breaks it), is k-frequent, and is either variable or
// all-constant (the normal form of Lemma 1).
func TestResultsAreMinimalOnRelation(t *testing.T) {
	inputs := []relAndSupport{{cust(), 2}}
	for _, in := range []struct{ size, arity, k int }{{3000, 7, 30}, {600, 9, 12}} {
		rel, err := dataset.Tax(dataset.TaxConfig{Size: in.size, Arity: in.arity, CF: 0.7, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, relAndSupport{rel, in.k})
	}
	for _, in := range inputs {
		for _, alg := range []discovery.Algorithm{discovery.AlgCTANE, discovery.AlgFastCFD} {
			cover := mine(t, alg, in.rel, discovery.WithSupport(in.k)).CFDs()
			if len(cover) == 0 {
				t.Errorf("%s on %d x %d: empty cover", alg, in.rel.Size(), in.rel.Arity())
			}
			for _, c := range cover {
				min, err := in.rel.IsMinimal(c)
				if err != nil {
					t.Fatalf("IsMinimal(%s): %v", c, err)
				}
				if !min {
					t.Errorf("%s: non-minimal CFD reported: %s", alg, c)
				}
				if sup, err := in.rel.Support(c); err != nil || sup < in.k {
					t.Errorf("%s: infrequent CFD reported: %s (support %d, %v)", alg, c, sup, err)
				}
				if !c.IsVariable() && !c.IsConstant() {
					t.Errorf("%s: constant RHS under a wildcard LHS entry: %s", alg, c)
				}
			}
		}
	}
}

func TestVariableOnlyAndMaxLHS(t *testing.T) {
	r := cust()
	set := mine(t, discovery.AlgFastCFD, r, discovery.WithSupport(2), discovery.WithVariableOnly(true))
	if set.Constant() != 0 || set.Variable() == 0 {
		t.Errorf("VariableOnly: constant=%d variable=%d", set.Constant(), set.Variable())
	}
	for _, c := range mine(t, discovery.AlgCTANE, r, discovery.WithSupport(2), discovery.WithMaxLHS(1)).CFDs() {
		if len(c.LHS) > 1 {
			t.Errorf("MaxLHS=1 violated: %s", c)
		}
	}
}

// TestVariableOnlyEveryAlgorithm checks that WithVariableOnly is honoured by
// the engine, not by the miner that happens to know the option: CTANE's
// variable cover is FastCFD's, neither holds a constant CFD, and CFDMiner —
// which finds nothing else — yields the empty set.
func TestVariableOnlyEveryAlgorithm(t *testing.T) {
	r := cust()
	opts := []discovery.Option{discovery.WithSupport(2), discovery.WithVariableOnly(true)}
	fast, ctane := mine(t, discovery.AlgFastCFD, r, opts...), mine(t, discovery.AlgCTANE, r, opts...)
	if ctane.Fingerprint() != fast.Fingerprint() {
		t.Errorf("CTANE and FastCFD disagree under VariableOnly: %d vs %d rules", ctane.Len(), fast.Len())
	}
	if ctane.Constant() != 0 || ctane.Variable() == 0 {
		t.Errorf("CTANE under VariableOnly: constant=%d variable=%d", ctane.Constant(), ctane.Variable())
	}
	if full := mine(t, discovery.AlgCTANE, r, discovery.WithSupport(2)); full.Variable() != ctane.Len() {
		t.Errorf("CTANE under VariableOnly keeps %d rules, its full cover has %d variable ones", ctane.Len(), full.Variable())
	}
	if set := mine(t, discovery.AlgCFDMiner, r, opts...); set.Len() != 0 {
		t.Errorf("CFDMiner under VariableOnly yields %d rules, want none", set.Len())
	}
}

// TestCFDMinerMaxLHS holds WithMaxLHS to its definition for the constant
// miner: CFDMiner under bound n reports the unbounded cover restricted to
// left-hand sides of at most n attributes, which is also the constant part of
// FastCFD's cover under the same bound — the two share one implementation of
// the bound.
func TestCFDMinerMaxLHS(t *testing.T) {
	gen, err := dataset.Tax(dataset.TaxConfig{Size: 400, Arity: 7, CF: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	text := func(cfds []cfd.CFD, keep func(cfd.CFD) bool) string {
		var kept []cfd.CFD
		for _, c := range cfds {
			if keep(c) {
				kept = append(kept, c)
			}
		}
		return cfd.FormatAll(kept)
	}
	for name, rs := range map[string]relAndSupport{"cust": {cust(), 2}, "tax": {gen, 4}} {
		full := mine(t, discovery.AlgCFDMiner, rs.rel, discovery.WithSupport(rs.k)).CFDs()
		for _, n := range []int{1, 2} {
			bounded := mine(t, discovery.AlgCFDMiner, rs.rel, discovery.WithSupport(rs.k), discovery.WithMaxLHS(n))
			got := cfd.FormatAll(bounded.CFDs())
			want := text(full, func(c cfd.CFD) bool { return len(c.LHS) <= n })
			if got != want {
				t.Errorf("%s MaxLHS=%d: CFDMiner reports\n%swant the unbounded cover's\n%s", name, n, got, want)
			}
			if n == 1 && (bounded.Len() == 0 || bounded.Len() == len(full)) {
				t.Errorf("%s MaxLHS=%d keeps %d of %d rules; the bound is not exercised", name, n, bounded.Len(), len(full))
			}
			fast := mine(t, discovery.AlgFastCFD, rs.rel, discovery.WithSupport(rs.k), discovery.WithMaxLHS(n)).CFDs()
			if constants := text(fast, cfd.CFD.IsConstant); constants != got {
				t.Errorf("%s MaxLHS=%d: FastCFD's constant CFDs are\n%sCFDMiner's\n%s", name, n, constants, got)
			}
		}
	}
}

// TestFDBaselinesAgree pins what lets TANE run on CTANE's lattice and FastFD
// on FastCFD's cover search: §4 and §5 present CTANE and FastCFD as
// extensions of the two, so at k = 1 the all-wildcard rules of a CFD cover
// must be exactly the minimal FDs — TANE's and FastFD's, which must also
// agree with each other. Checked on cust, on a
// relation with a constant column (∅ → C), on Tax relations of arity 7 and 9
// and on seeded random relations.
func TestFDBaselinesAgree(t *testing.T) {
	constant, err := cfd.FromRows([]string{"A", "B", "C"}, [][]string{
		{"1", "x", "c"}, {"1", "x", "c"}, {"2", "y", "c"}, {"3", "y", "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tax, err := dataset.Tax(dataset.TaxConfig{Size: 300, Arity: 7, CF: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tax9, err := dataset.Tax(dataset.TaxConfig{Size: 60, Arity: 9, CF: 0.7, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	relations := map[string]*cfd.Relation{"cust": cust(), "constant-column": constant, "tax": tax, "tax-9": tax9}
	for seed := int64(1); seed <= 12; seed++ {
		relations[fmt.Sprint("random-", seed)] = cfd.WrapEncoded(fixture.Random(seed, 10, []int{2, 3, 3, 4, 5}))
		relations[fmt.Sprint("correlated-", seed)] = cfd.WrapEncoded(fixture.RandomCorrelated(seed, 40, 5, 4))
	}
	fds := func(set *rules.Set) string {
		var kept []cfd.CFD
		for _, c := range set.CFDs() {
			if c.IsFD() {
				kept = append(kept, c)
			}
		}
		return cfd.FormatAll(kept)
	}
	for name, r := range relations {
		tane := mine(t, discovery.AlgTANE, r)
		want := fds(tane)
		if tane.Len() == 0 || strings.Count(want, "\n") != tane.Len() {
			t.Errorf("%s: TANE reports %d rules, %d of them FDs", name, tane.Len(), strings.Count(want, "\n"))
		}
		for _, alg := range []discovery.Algorithm{discovery.AlgFastFD, discovery.AlgCTANE, discovery.AlgFastCFD} {
			if got := fds(mine(t, alg, r, discovery.WithSupport(1))); got != want {
				t.Errorf("%s: the FDs of %s's cover at k = 1 are\n%sTANE's minimal FDs are\n%s", name, alg, got, want)
			}
		}
	}
}

// TestDiscoverOnGeneratedData smoke-tests the pipeline on the synthetic Tax
// generator at a small scale and checks the algorithms agree there too.
func TestDiscoverOnGeneratedData(t *testing.T) {
	rel, err := dataset.Tax(dataset.TaxConfig{Size: 400, Arity: 7, CF: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ct := mine(t, discovery.AlgCTANE, rel, discovery.WithSupport(4))
	fc := mine(t, discovery.AlgFastCFD, rel, discovery.WithSupport(4))
	if ct.Len() == 0 || fc.Len() == 0 {
		t.Fatalf("expected CFDs on generated data: ctane=%d fastcfd=%d", ct.Len(), fc.Len())
	}
	a, b := keys(ct.CFDs()), keys(fc.CFDs())
	if len(a) != len(b) {
		t.Errorf("CTANE found %d CFDs, FastCFD %d", len(a), len(b))
	}
	for s := range a {
		if !b[s] {
			t.Errorf("FastCFD missing %s", s)
		}
	}
	for s := range b {
		if !a[s] {
			t.Errorf("CTANE missing %s", s)
		}
	}
}

// TestRuleExportRoundTrip checks that a discovered set's rule file — the
// format cfdclean -rules and cfdserve -rules read — parses back to exactly
// the same rules and provenance.
func TestRuleExportRoundTrip(t *testing.T) {
	set := mine(t, discovery.AlgFastCFD, cust(), discovery.WithSupport(2))
	if p := set.Provenance(); p.Tuples != 8 || p.Attributes != 7 {
		t.Fatalf("relation size metadata = %d x %d, want 8 x 7", p.Tuples, p.Attributes)
	}
	text := set.Text()
	if !strings.HasPrefix(text, "# fastcfd on 8 tuples x 7 attributes") {
		t.Fatalf("missing summary header: %q", text[:60])
	}
	parsed, err := rules.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	got, want := keys(parsed.CFDs()), keys(set.CFDs())
	if len(got) != len(want) {
		t.Fatalf("round trip lost rules: %d parsed, %d discovered", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("rule %s missing after round trip", k)
		}
	}
	if p := parsed.Provenance(); p.Algorithm != "fastcfd" || p.Support != 2 || p.Tuples != 8 || p.Attributes != 7 {
		t.Errorf("provenance lost in round trip: %+v", p)
	}
}
