package rules_test

import (
	"strings"
	"testing"

	"repro/cfd"
	"repro/rules"
)

func mustParse(t *testing.T, lines ...string) []cfd.CFD {
	t.Helper()
	cfds, err := cfd.ParseAll(strings.Join(lines, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return cfds
}

func TestFingerprint(t *testing.T) {
	a := mustParse(t,
		"([CC,AC] -> CT, (01, _ || MH))",
		"([ZIP] -> STR, (_ || _))",
	)
	base := rules.Of(a...)

	// Order-independent, provenance-independent, stable across recomputation.
	if got := rules.Of(a[1], a[0]).Fingerprint(); got != base.Fingerprint() {
		t.Fatalf("fingerprint depends on set order: %s vs %s", got, base.Fingerprint())
	}
	withProv := rules.New(a, rules.Provenance{Algorithm: "ctane", Support: 5})
	if withProv.Fingerprint() != base.Fingerprint() {
		t.Fatal("fingerprint must ignore provenance")
	}
	// LHS attribute order is canonicalised away.
	swapped := cfd.CFD{LHS: []string{"AC", "CC"}, RHS: "CT", LHSPattern: []string{"_", "01"}, RHSPattern: "MH"}
	if rules.Of(swapped, a[1]).Fingerprint() != base.Fingerprint() {
		t.Fatal("fingerprint must normalise LHS attribute order")
	}
	// Content changes move it.
	if rules.Of(a[0]).Fingerprint() == base.Fingerprint() {
		t.Fatal("dropping a rule must change the fingerprint")
	}
	// Nil and empty sets agree.
	var nilSet *rules.Set
	if nilSet.Fingerprint() != rules.Of().Fingerprint() {
		t.Fatal("nil and empty fingerprints must match")
	}
	if nilSet.Fingerprint() == base.Fingerprint() {
		t.Fatal("empty and non-empty fingerprints must differ")
	}
	if len(base.Fingerprint()) != 16 {
		t.Fatalf("fingerprint %q is not 16 hex chars", base.Fingerprint())
	}
}

func TestDiff(t *testing.T) {
	r := mustParse(t,
		"([CC,AC] -> CT, (01, _ || MH))",
		"([ZIP] -> STR, (_ || _))",
		"([NM] -> PN, (_ || _))",
		"([CT] -> CC, (_ || _))",
	)
	old := rules.Of(r[0], r[1], r[2])
	new := rules.Of(r[3], r[1], r[0])

	d := rules.Diff(old, new)
	if len(d.Added) != 1 || !d.Added[0].Equal(r[3]) {
		t.Fatalf("added = %v", d.Added)
	}
	if len(d.Removed) != 1 || !d.Removed[0].Equal(r[2]) {
		t.Fatalf("removed = %v", d.Removed)
	}
	if len(d.Retained) != 2 {
		t.Fatalf("retained = %v", d.Retained)
	}
	if d.Old != old.Fingerprint() || d.New != new.Fingerprint() {
		t.Fatalf("delta fingerprints %s -> %s", d.Old, d.New)
	}
	if d.Unchanged() {
		t.Fatal("a real diff must not report Unchanged")
	}
	if s := d.String(); !strings.Contains(s, "+1 -1 =2 rules") {
		t.Fatalf("String() = %q", s)
	}

	// Identity, against a reordered and LHS-permuted copy.
	perm := cfd.CFD{LHS: []string{"AC", "CC"}, RHS: "CT", LHSPattern: []string{"_", "01"}, RHSPattern: "MH"}
	same := rules.Diff(old, rules.Of(r[2], r[1], perm))
	if !same.Unchanged() || len(same.Retained) != 3 {
		t.Fatalf("identity diff = %v", same)
	}
	if s := same.String(); !strings.Contains(s, "unchanged") {
		t.Fatalf("identity String() = %q", s)
	}

	// Nil sets are empty.
	fromNil := rules.Diff(nil, old)
	if len(fromNil.Added) != 3 || len(fromNil.Removed) != 0 || len(fromNil.Retained) != 0 {
		t.Fatalf("diff from nil = %v", fromNil)
	}
	toNil := rules.Diff(old, nil)
	if len(toNil.Added) != 0 || len(toNil.Removed) != 3 || len(toNil.Retained) != 0 {
		t.Fatalf("diff to nil = %v", toNil)
	}

	// A set holds a rule once, so two copies in old against one in new is
	// no change.
	dup := rules.Diff(rules.Of(r[0], r[0]), rules.Of(r[0]))
	if !dup.Unchanged() || len(dup.Retained) != 1 {
		t.Fatalf("duplicate diff = %v", dup)
	}
}
