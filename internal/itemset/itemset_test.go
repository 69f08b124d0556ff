package itemset

import (
	"context"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
)

func item(t *testing.T, r *core.Relation, attr, value string) Item {
	t.Helper()
	a, ok := r.Schema().Index(attr)
	if !ok {
		t.Fatalf("unknown attribute %q", attr)
	}
	v, ok := r.Dict(a).Lookup(value)
	if !ok {
		t.Fatalf("value %q not in domain of %s", value, attr)
	}
	return Item{Attr: a, Value: v}
}

func set(t *testing.T, r *core.Relation, pairs ...string) ItemSet {
	t.Helper()
	s := EmptyItemSet(r.Arity())
	for i := 0; i+1 < len(pairs); i += 2 {
		s = s.With(item(t, r, pairs[i], pairs[i+1]))
	}
	return s
}

func TestItemSetBasics(t *testing.T) {
	r := fixture.Cust()
	s := set(t, r, "CC", "01", "AC", "908")
	if s.Size() != 2 {
		t.Fatalf("Size = %d", s.Size())
	}
	if !s.Has(item(t, r, "CC", "01")) || s.Has(item(t, r, "CC", "44")) {
		t.Error("Has misbehaves")
	}
	sub := set(t, r, "CC", "01")
	if !s.ContainsAll(sub) {
		t.Error("ContainsAll should hold for a sub item set")
	}
	if s.ContainsAll(set(t, r, "CC", "44")) {
		t.Error("ContainsAll must compare values, not just attributes")
	}
	if sub.ContainsAll(s) {
		t.Error("a smaller set cannot contain a larger one")
	}
	without := s.Without(item(t, r, "CC", "01").Attr)
	if without.Size() != 1 || without.Has(item(t, r, "CC", "01")) {
		t.Error("Without failed")
	}
	proj := s.Project(core.SingleAttr(item(t, r, "AC", "908").Attr))
	if proj.Size() != 1 || !proj.Has(item(t, r, "AC", "908")) {
		t.Error("Project failed")
	}
	if s.Key() == sub.Key() {
		t.Error("distinct item sets must have distinct keys")
	}
	items := s.Items()
	if len(items) != 2 || !items[0].Less(items[1]) {
		t.Errorf("Items not ordered: %v", items)
	}
}

// mine runs MineContext to completion.
func mine(t testing.TB, r *core.Relation, k int) *Mining {
	t.Helper()
	m, err := MineContext(context.Background(), r, k)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMineCustExample verifies the free/closed sets of Fig. 2 of the paper on
// the cust relation with k = 3.
func TestMineCustExample(t *testing.T) {
	r := fixture.Cust()
	m := mine(t, r, 3)

	// The empty set is free with support |r| = 8 and an empty closure (no
	// attribute is constant across r0).
	empty, ok := m.LookupFree(core.EmptyAttrSet, core.NewPattern(r.Arity()))
	if !ok {
		t.Fatal("empty free set missing")
	}
	if empty.Support() != 8 {
		t.Errorf("support of empty set = %d, want 8", empty.Support())
	}
	if empty.Closure.Size() != 0 {
		t.Errorf("closure of empty set = %v, want empty", empty.Closure.Format(r))
	}

	// Fig. 2: ([CC,AC,CT,ZIP],(01,908,MH,07974)) is a closed set with support 3
	// whose free sets are ([CC,AC],(01,908)) and ([ZIP],(07974)).
	bigClosed := set(t, r, "CC", "01", "AC", "908", "CT", "MH", "ZIP", "07974")
	freeA := set(t, r, "CC", "01", "AC", "908")
	freeB := set(t, r, "ZIP", "07974")
	fsA, okA := m.LookupFree(freeA.Attrs, freeA.Tp)
	fsB, okB := m.LookupFree(freeB.Attrs, freeB.Tp)
	if !okA || !okB {
		t.Fatalf("expected free sets missing: CC,AC=%v ZIP=%v", okA, okB)
	}
	if fsA.Support() != 3 || fsB.Support() != 3 {
		t.Errorf("supports = %d, %d, want 3, 3", fsA.Support(), fsB.Support())
	}
	if fsA.Closure.Key() != fsB.Closure.Key() {
		t.Error("the two free sets must share a closure")
	}
	if fsA.Closure.Key() != bigClosed.Key() {
		t.Errorf("closure = %s, want %s", fsA.Closure.Format(r), bigClosed.Format(r))
	}
	if got := r.CountMatching(fsA.Closure.Attrs, fsA.Closure.Tp); got != 3 {
		t.Errorf("closure support = %d, want 3", got)
	}

	// Fig. 2 / Example 7: clo((AC,908)) = ([AC,CT],(908,MH)) with support 4,
	// shared with the free set (CT, MH).
	ac908 := set(t, r, "AC", "908")
	ctMH := set(t, r, "CT", "MH")
	fsAC, ok := m.LookupFree(ac908.Attrs, ac908.Tp)
	if !ok {
		t.Fatal("(AC,908) should be free")
	}
	if fsAC.Support() != 4 {
		t.Errorf("support of (AC,908) = %d, want 4", fsAC.Support())
	}
	wantClosure := set(t, r, "AC", "908", "CT", "MH")
	if fsAC.Closure.Key() != wantClosure.Key() {
		t.Errorf("clo(AC,908) = %s, want %s", fsAC.Closure.Format(r), wantClosure.Format(r))
	}
	fsCT, ok := m.LookupFree(ctMH.Attrs, ctMH.Tp)
	if !ok || fsCT.Closure.Key() != fsAC.Closure.Key() {
		t.Error("(CT,MH) should be free and share clo with (AC,908)")
	}

	// ([AC,CT],(908,MH)) itself is not free: its subset (AC,908) has the same support.
	if m.IsFree(wantClosure.Attrs, wantClosure.Tp) {
		t.Error("([AC,CT],(908,MH)) must not be reported as free")
	}
}

// TestMineInvariants checks structural invariants of the mining result on the
// cust relation for several support thresholds: every free set is k-frequent
// and free, and its closure contains it, has its support and is closed.
func TestMineInvariants(t *testing.T) {
	r := fixture.Cust()
	for _, k := range []int{1, 2, 3, 4, 8} {
		m := mine(t, r, k)
		if len(m.Free) == 0 {
			t.Fatalf("k=%d: no free sets", k)
		}
		for _, fs := range m.Free {
			if fs.Size() > 0 && fs.Support() < k {
				t.Errorf("k=%d: free set %s has support %d < k", k, fs.Format(r), fs.Support())
			}
			if got := r.CountMatching(fs.Attrs, fs.Tp); got != fs.Support() {
				t.Errorf("k=%d: free set %s support %d, recount %d", k, fs.Format(r), fs.Support(), got)
			}
			cs := fs.Closure
			if !cs.ContainsAll(fs.ItemSet) {
				t.Errorf("k=%d: closure %s does not contain free set %s", k, cs.Format(r), fs.Format(r))
			}
			if got := r.CountMatching(cs.Attrs, cs.Tp); got != fs.Support() {
				t.Errorf("k=%d: closure %s support %d != free support %d", k, cs.Format(r), got, fs.Support())
			}
			// Closed-ness: no attribute outside the closure is constant on its support.
			tids := r.MatchingTuples(cs.Attrs, cs.Tp)
			for a := 0; a < r.Arity() && len(tids) > 0; a++ {
				if cs.Attrs.Has(a) {
					continue
				}
				if _, same := constantOn(r.Column(a), tids); same {
					t.Errorf("k=%d: %s is not closed (attribute %s is constant on its support)", k, cs.Format(r), r.Schema().Name(a))
				}
			}
			// Free-ness: no immediate subset has the same support.
			fs.Attrs.ForEach(func(a int) {
				sub := fs.ItemSet.Without(a)
				if r.CountMatching(sub.Attrs, sub.Tp) == fs.Support() {
					t.Errorf("k=%d: %s is not free (dropping %s keeps support)", k, fs.Format(r), r.Schema().Name(a))
				}
			})
		}
		// Free sets are sorted in ascending size order.
		for i := 1; i < len(m.Free); i++ {
			if m.Free[i-1].Size() > m.Free[i].Size() {
				t.Errorf("k=%d: free sets not sorted by size", k)
				break
			}
		}
	}
}

// closedPattern is one closed set of a ClosedSets, copied out for comparison.
type closedPattern struct {
	Attrs core.AttrSet
	Tp    core.Pattern
}

func (c closedPattern) Key() string { return c.Tp.Key(c.Attrs) }

// patterns copies the closed sets out in search order; nil when there are
// none.
func patterns(s *ClosedSets) []closedPattern {
	var out []closedPattern
	for id := range s.All() {
		out = append(out, closedPattern{Attrs: s.Attrs(id), Tp: slices.Clone(s.Pattern(id))})
	}
	return out
}

// mineClosed runs the sequential closed-set miner, which cannot fail under a
// background context.
func mineClosed(t *testing.T, r *core.Relation, minsup int) []closedPattern {
	t.Helper()
	out, err := MineClosed(context.Background(), r, minsup, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps := patterns(out)
	if out.Len() != len(ps) {
		t.Fatalf("Len() = %d, All() yields %d sets", out.Len(), len(ps))
	}
	return ps
}

// TestMineMatchesMineClosed cross-validates the levelwise generator miner
// against the depth-first closed miner: the distinct closures of the
// k-frequent free sets must be exactly the k-frequent closed item sets.
func TestMineMatchesMineClosed(t *testing.T) {
	rels := map[string]*core.Relation{
		"cust":    fixture.Cust(),
		"random1": fixture.Random(1, 60, []int{3, 4, 2, 5}),
		"random2": fixture.Random(7, 120, []int{2, 2, 3, 3, 4}),
		"corr":    fixture.RandomCorrelated(3, 100, 5, 6),
		// A one-value column and an (almost surely) all-distinct one.
		"degenerate": fixture.Random(5, 60, []int{1, 1 << 30, 3, 2}),
	}
	for name, r := range rels {
		for _, k := range []int{1, 2, 3, 5} {
			m := mine(t, r, k)
			closed := mineClosed(t, r, k)
			a := make(map[string]int)
			for _, fs := range m.Free {
				a[fs.Closure.Key()] = fs.Support()
			}
			b := make(map[string]int)
			for _, cp := range closed {
				if _, dup := b[cp.Key()]; dup {
					t.Errorf("%s k=%d: MineClosed produced duplicate %s", name, k, cp.Tp.Format(r, cp.Attrs))
				}
				b[cp.Key()] = r.CountMatching(cp.Attrs, cp.Tp)
			}
			if len(a) != len(b) {
				t.Errorf("%s k=%d: Mine found %d closed sets, MineClosed %d", name, k, len(a), len(b))
			}
			for key, sup := range a {
				if b[key] != sup {
					t.Errorf("%s k=%d: closed set %q support mismatch: %d vs %d", name, k, key, sup, b[key])
				}
			}
		}
	}
}

// TestMineClosedInvariants checks that every pattern reported by MineClosed is
// genuinely closed, frequent, and a constant pattern over exactly its
// attributes.
func TestMineClosedInvariants(t *testing.T) {
	r := fixture.Cust()
	for _, minsup := range []int{1, 2, 3} {
		for _, cp := range mineClosed(t, r, minsup) {
			if got := r.CountMatching(cp.Attrs, cp.Tp); got < minsup {
				t.Errorf("minsup=%d: %s has count %d", minsup, cp.Tp.Format(r, cp.Attrs), got)
			}
			for a, v := range cp.Tp {
				if cp.Attrs.Has(a) != (v != core.Wildcard) {
					t.Errorf("minsup=%d: %s holds %d on %s", minsup, cp.Tp.Format(r, cp.Attrs), v, r.Schema().Name(a))
				}
			}
			tids := r.MatchingTuples(cp.Attrs, cp.Tp)
			for a := 0; a < r.Arity(); a++ {
				if cp.Attrs.Has(a) || len(tids) == 0 {
					continue
				}
				col := r.Column(a)
				same := true
				for _, tid := range tids[1:] {
					if col[tid] != col[tids[0]] {
						same = false
						break
					}
				}
				if same {
					t.Errorf("minsup=%d: %s is not closed w.r.t. %s", minsup, cp.Tp.Format(r, cp.Attrs), r.Schema().Name(a))
				}
			}
		}
	}
}

// TestMineClosedContainsPairAgreeSets verifies the property FastCFD relies on:
// the agree set of every pair of tuples appears among the 2-frequent closed sets.
func TestMineClosedContainsPairAgreeSets(t *testing.T) {
	r := fixture.Cust()
	closed := mineClosed(t, r, 2)
	index := make(map[string]bool, len(closed))
	for _, cp := range closed {
		index[cp.Key()] = true
	}
	for t1 := 0; t1 < r.Size(); t1++ {
		for t2 := t1 + 1; t2 < r.Size(); t2++ {
			agree := EmptyItemSet(r.Arity())
			for a := 0; a < r.Arity(); a++ {
				if r.Value(t1, a) == r.Value(t2, a) {
					agree = agree.With(Item{Attr: a, Value: r.Value(t1, a)})
				}
			}
			if !index[agree.Key()] {
				t.Errorf("agree set of t%d,t%d (%s) missing from 2-frequent closed sets", t1+1, t2+1, agree.Format(r))
			}
		}
	}
}

func TestMineSmallerThanK(t *testing.T) {
	r := fixture.Cust()
	m := mine(t, r, 100)
	// Only the empty free set survives when k exceeds |r|.
	if len(m.Free) != 1 || m.Free[0].Size() != 0 {
		t.Errorf("expected only the empty free set, got %d free sets", len(m.Free))
	}
	if got := mineClosed(t, r, 100); got != nil {
		t.Errorf("MineClosed with minsup > |r| should return nil, got %d", len(got))
	}
}
