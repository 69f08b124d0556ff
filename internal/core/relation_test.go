package core

import (
	"encoding/json"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestNewSchemaErrors(t *testing.T) {
	if _, err := NewSchema("A", "B", "A"); !errors.Is(err, ErrDuplicateAttr) {
		t.Errorf("duplicate attr: err = %v, want ErrDuplicateAttr", err)
	}
	if _, err := NewSchema("A", ""); err == nil {
		t.Error("empty attribute name should be rejected")
	}
	many := make([]string, 65)
	for i := range many {
		many[i] = "A" + itoa(i)
	}
	if _, err := NewSchema(many...); !errors.Is(err, ErrArityTooLarge) {
		t.Errorf("65 attrs: err = %v, want ErrArityTooLarge", err)
	}
}

func TestSchemaLookup(t *testing.T) {
	s := MustSchema("CC", "AC", "PN")
	if s.Arity() != 3 {
		t.Fatalf("Arity = %d", s.Arity())
	}
	if i, ok := s.Index("AC"); !ok || i != 1 {
		t.Errorf("Index(AC) = %d,%v", i, ok)
	}
	if _, ok := s.Index("XX"); ok {
		t.Error("Index(XX) should not be found")
	}
	set, err := s.AttrSetOf("CC", "PN")
	if err != nil || set != NewAttrSet(0, 2) {
		t.Errorf("AttrSetOf = %v, %v", set, err)
	}
	if _, err := s.AttrSetOf("NOPE"); !errors.Is(err, ErrUnknownAttr) {
		t.Errorf("unknown attr err = %v", err)
	}
	if s.All() != NewAttrSet(0, 1, 2) {
		t.Errorf("All = %v", s.All())
	}
	names := s.Names()
	names[0] = "mutated"
	if s.Name(0) != "CC" {
		t.Error("Names() must return a copy")
	}
}

func TestDictEncodeDecode(t *testing.T) {
	d := NewDict()
	a := d.Encode("x")
	b := d.Encode("y")
	if a == b {
		t.Fatal("distinct values must get distinct codes")
	}
	if d.Encode("x") != a {
		t.Error("re-encoding must be stable")
	}
	if d.Size() != 2 {
		t.Errorf("Size = %d", d.Size())
	}
	if d.Value(a) != "x" || d.Value(b) != "y" {
		t.Error("Value round trip failed")
	}
	if c, ok := d.Lookup("x"); !ok || c != a {
		t.Error("Lookup failed")
	}
	if _, ok := d.Lookup("z"); ok {
		t.Error("Lookup of absent value should fail")
	}
}

func TestRelationAppendAndAccess(t *testing.T) {
	r := NewRelation(MustSchema("A", "B"))
	if err := r.AppendRow([]string{"1", "x"}); err != nil {
		t.Fatal(err)
	}
	if err := r.AppendRow([]string{"2", "x"}); err != nil {
		t.Fatal(err)
	}
	if err := r.AppendRow([]string{"1"}); err == nil {
		t.Error("short row should be rejected")
	}
	if r.Size() != 2 || r.Arity() != 2 {
		t.Fatalf("Size/Arity = %d/%d", r.Size(), r.Arity())
	}
	if r.ValueString(0, 0) != "1" || r.ValueString(1, 1) != "x" {
		t.Error("ValueString round trip failed")
	}
	if r.Value(0, 1) != r.Value(1, 1) {
		t.Error("equal strings must share a code")
	}
	if r.DomainSize(0) != 2 || r.DomainSize(1) != 1 {
		t.Errorf("DomainSize = %d/%d", r.DomainSize(0), r.DomainSize(1))
	}
	row := r.Row(1)
	if len(row) != 2 || row[0] != "2" || row[1] != "x" {
		t.Errorf("Row(1) = %v", row)
	}
}

func TestRelationRestrictAndHead(t *testing.T) {
	r := NewRelation(MustSchema("A", "B", "C"))
	rows := [][]string{{"1", "x", "p"}, {"2", "y", "q"}, {"3", "z", "r"}}
	for _, row := range rows {
		if err := r.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := r.Restrict(NewAttrSet(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Arity() != 2 || sub.Schema().Name(1) != "C" {
		t.Fatalf("Restrict schema wrong: %v", sub.Schema().Names())
	}
	if sub.ValueString(1, 1) != "q" {
		t.Errorf("Restrict values wrong: %q", sub.ValueString(1, 1))
	}
	h := r.Head(2)
	if h.Size() != 2 || h.ValueString(1, 1) != "y" {
		t.Errorf("Head wrong: size=%d", h.Size())
	}
	if r.Head(99).Size() != 3 {
		t.Error("Head beyond size must return whole relation")
	}
}

// sameRelation fails unless got and want agree on size, tuple count, every
// dictionary (values in code order) and every column.
func sameRelation(t *testing.T, what string, got, want *Relation) {
	t.Helper()
	if got.Size() != want.Size() || got.Count() != want.Count() || got.Arity() != want.Arity() {
		t.Fatalf("%s: size/count/arity = %d/%d/%d, want %d/%d/%d", what,
			got.Size(), got.Count(), got.Arity(), want.Size(), want.Count(), want.Arity())
	}
	for a := 0; a < want.Arity(); a++ {
		if got.Schema().Name(a) != want.Schema().Name(a) {
			t.Fatalf("%s: attribute %d is %q, want %q", what, a, got.Schema().Name(a), want.Schema().Name(a))
		}
		if !slices.Equal(got.Dict(a).Values(), want.Dict(a).Values()) {
			t.Fatalf("%s: attribute %d dictionary = %q, want %q", what, a, got.Dict(a).Values(), want.Dict(a).Values())
		}
		if !slices.Equal(got.Column(a), want.Column(a)) {
			t.Fatalf("%s: attribute %d column = %v, want %v", what, a, got.Column(a), want.Column(a))
		}
		for code, v := range got.Dict(a).Values() {
			if c, ok := got.Dict(a).Lookup(v); !ok || int(c) != code {
				t.Fatalf("%s: attribute %d: Lookup(%q) = %d,%v, want %d", what, a, v, c, ok, code)
			}
		}
	}
}

// TestHeadRestrictMatchStringPath: Head and Restrict, which recode integer
// columns, build exactly the relation the old implementation built by
// decoding every cell to a string and re-interning it — including when the
// prefix leaves dictionary entries behind (their codes shift).
func TestHeadRestrictMatchStringPath(t *testing.T) {
	r := NewRelation(MustSchema("A", "B", "C"))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		row := []string{itoa(rng.Intn(40)), itoa(rng.Intn(3)), "c" + itoa(rng.Intn(150))}
		if err := r.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{-1, 0, 1, 17, 199, 200, 500} {
		want := NewRelation(r.Schema())
		for i := 0; i < n && i < r.Size(); i++ {
			if err := want.AppendRow(r.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		sameRelation(t, "Head("+itoa(n)+")", r.Head(n), want)
	}
	for _, keep := range []AttrSet{NewAttrSet(0, 2), NewAttrSet(1), r.Schema().All(), EmptyAttrSet} {
		attrs := keep.Attrs()
		names := make([]string, len(attrs))
		for i, a := range attrs {
			names[i] = r.Schema().Name(a)
		}
		want := NewRelation(MustSchema(names...))
		for i := 0; i < r.Size(); i++ {
			row := make([]string, len(attrs))
			for j, a := range attrs {
				row[j] = r.ValueString(i, a)
			}
			if err := want.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		got, err := r.Restrict(keep)
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, "Restrict("+keep.String()+")", got, want)
	}
	if _, err := r.Restrict(NewAttrSet(0, 3)); !errors.Is(err, ErrUnknownAttr) {
		t.Errorf("Restrict beyond the schema: err = %v, want ErrUnknownAttr", err)
	}
}

// TestRelationHoles pins the slot bookkeeping the violation engine builds on:
// Grow opens holes, Set fills or overwrites, Clear punches, Live and Count
// follow, and Size counts slots, holes included.
func TestRelationHoles(t *testing.T) {
	r := NewRelation(MustSchema("A", "B"))
	row := func(a, b string) []int32 { return []int32{r.Dict(0).Encode(a), r.Dict(1).Encode(b)} }
	r.Grow(3)
	if r.Size() != 3 || r.Count() != 0 || r.Live(0) || r.Live(2) {
		t.Fatalf("after Grow(3): size %d count %d live(0) %v", r.Size(), r.Count(), r.Live(0))
	}
	r.Set(1, row("x", "1"))
	r.Set(2, row("y", "1"))
	r.Set(1, row("z", "2")) // overwrite: still one tuple at slot 1
	if r.Size() != 3 || r.Count() != 2 || r.Live(0) || !r.Live(1) || !r.Live(2) {
		t.Fatalf("after Sets: size %d count %d", r.Size(), r.Count())
	}
	if r.Live(-1) || r.Live(3) {
		t.Error("slots outside [0, Size) are not live")
	}
	if got := r.Row(1); got[0] != "z" || got[1] != "2" {
		t.Errorf("Row(1) = %q", got)
	}
	if r.Dict(0).Value(r.Value(2, 0)) != "y" {
		t.Errorf("Value(2, 0) = %d, want the code of %q", r.Value(2, 0), "y")
	}
	r.Clear(2)
	if r.Count() != 1 || r.Live(2) || r.Size() != 3 {
		t.Fatalf("after Clear(2): size %d count %d live(2) %v", r.Size(), r.Count(), r.Live(2))
	}
	for a := 0; a < 2; a++ {
		if col := r.Column(a); col[0] != Absent || col[2] != Absent || col[1] == Absent {
			t.Errorf("column %d = %v: holes must be Absent on every column", a, col)
		}
	}
	if err := r.AppendRow([]string{"w", "3"}); err != nil {
		t.Fatal(err)
	}
	if r.Size() != 4 || r.Count() != 2 || !r.Live(3) {
		t.Fatalf("after AppendRow: size %d count %d", r.Size(), r.Count())
	}
}

// TestAppendRecoded drives the one primitive that moves tuples between
// dictionaries, from a source with holes, out-of-first-use-order codes, a
// dead dictionary entry and a code only a rule constant would hold.
func TestAppendRecoded(t *testing.T) {
	src := NewRelation(MustSchema("A", "B"))
	src.Dict(0).Encode("rule-constant") // code 0 of A: no tuple ever carries it
	for _, row := range [][]string{{"q", "1"}, {"dead", "2"}, {"p", "1"}, {"q", "3"}} {
		if err := src.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	src.Clear(1) // "dead" and "2" stay in the dictionaries, carried by no tuple
	src.Grow(2)  // trailing holes
	src.Set(4, RowCodes(src, 2))
	dicts, cols := src.Raw()

	// Skipping holes into an empty relation: compact, first-use codes, id map.
	compact := NewRelation(src.Schema())
	kept := compact.AppendRecoded(dicts, cols, src.Size(), false)
	if want := []int{0, 2, 3, 4}; !slices.Equal(kept, want) {
		t.Fatalf("kept = %v, want %v", kept, want)
	}
	want := NewRelation(src.Schema())
	for _, i := range kept {
		if err := want.AppendRow(src.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	sameRelation(t, "holes skipped", compact, want)
	if got := compact.Dict(0).Values(); !slices.Equal(got, []string{"q", "p"}) {
		t.Errorf("A dictionary = %q: want first-use order without dead or constant-only entries", got)
	}

	// Keeping holes: slot for slot, same dictionaries as the compact copy.
	holes := NewRelation(src.Schema())
	if kept := holes.AppendRecoded(dicts, cols, src.Size(), true); kept != nil {
		t.Errorf("keeping holes returned an id map %v", kept)
	}
	if holes.Size() != 6 || holes.Count() != 4 {
		t.Fatalf("holes kept: size %d count %d, want 6 and 4", holes.Size(), holes.Count())
	}
	for i := 0; i < src.Size(); i++ {
		if holes.Live(i) != src.Live(i) || (src.Live(i) && !slices.Equal(holes.Row(i), src.Row(i))) {
			t.Errorf("slot %d: live %v, want %v (row %q)", i, holes.Live(i), src.Live(i), src.Row(i))
		}
	}
	for a := 0; a < 2; a++ {
		if !slices.Equal(holes.Dict(a).Values(), compact.Dict(a).Values()) {
			t.Errorf("attribute %d dictionary = %q, want %q", a, holes.Dict(a).Values(), compact.Dict(a).Values())
		}
	}

	// Into a relation that already has tuples and dictionary entries: appended
	// after them, existing codes reused, and only the first rows rows taken.
	dst := NewRelation(src.Schema())
	dst.Dict(1).Encode("3")
	if err := dst.AppendRow([]string{"p", "9"}); err != nil {
		t.Fatal(err)
	}
	dst.AppendRecoded(dicts, cols, 3, true)
	if dst.Size() != 4 || dst.Count() != 3 || dst.Live(2) {
		t.Fatalf("appended prefix: size %d count %d live(2) %v", dst.Size(), dst.Count(), dst.Live(2))
	}
	if got := dst.Row(3); !slices.Equal(got, []string{"p", "1"}) || dst.Value(3, 0) != dst.Value(0, 0) {
		t.Errorf("slot 3 = %q with A code %d, want [p 1] sharing slot 0's code %d", got, dst.Value(3, 0), dst.Value(0, 0))
	}
	if got := dst.Dict(1).Values(); !slices.Equal(got, []string{"3", "9", "1"}) {
		t.Errorf("B dictionary = %q", got)
	}

	// The raw form of an empty relation serialises as empty lists, not null:
	// snapshot bytes depend on it.
	d, c := NewRelation(src.Schema()).Raw()
	dj, _ := json.Marshal(d)
	cj, _ := json.Marshal(c)
	if string(dj) != "[[],[]]" || string(cj) != "[[],[]]" {
		t.Errorf("empty raw form = %s / %s, want [[],[]] twice", dj, cj)
	}
}

// TestDictDeferredIndex: a dictionary filled by AppendRecoded has no
// value→code index until someone asks; the first Lookups may come from many
// goroutines at once (a relation handed to parallel miners), and an Encode
// afterwards extends both directions consistently.
func TestDictDeferredIndex(t *testing.T) {
	src := NewRelation(MustSchema("A"))
	for i := 0; i < 500; i++ {
		if err := src.AppendRow([]string{"v" + itoa(i%97)}); err != nil {
			t.Fatal(err)
		}
	}
	d := src.Head(400).Dict(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for code, v := range d.Values() {
				if c, ok := d.Lookup(v); !ok || int(c) != code {
					t.Errorf("Lookup(%q) = %d,%v, want %d", v, c, ok, code)
				}
			}
		}()
	}
	wg.Wait()
	if c := d.Encode("v3"); d.Value(c) != "v3" || d.Size() != 97 {
		t.Errorf("Encode of a present value: code %d, size %d", c, d.Size())
	}
	if c := d.Encode("new"); int(c) != 97 || d.Value(c) != "new" {
		t.Errorf("Encode of a new value = %d", c)
	}
	if c, ok := d.Lookup("new"); !ok || c != 97 {
		t.Errorf("Lookup(new) = %d,%v", c, ok)
	}
}

func TestMatchingTuples(t *testing.T) {
	r := NewRelation(MustSchema("A", "B"))
	data := [][]string{{"1", "x"}, {"1", "y"}, {"2", "x"}, {"1", "x"}}
	for _, row := range data {
		if err := r.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPattern(2)
	p[0], _ = r.Dict(0).Lookup("1")
	tids := r.MatchingTuples(NewAttrSet(0), p)
	if len(tids) != 3 {
		t.Errorf("matching A=1: %v", tids)
	}
	if got := r.CountMatching(NewAttrSet(0), p); got != 3 {
		t.Errorf("CountMatching = %d", got)
	}
	p[1], _ = r.Dict(1).Lookup("x")
	tids = r.MatchingTuples(NewAttrSet(0, 1), p)
	if len(tids) != 2 || tids[0] != 0 || tids[1] != 3 {
		t.Errorf("matching A=1,B=x: %v", tids)
	}
	// Wildcards and the empty attribute set match everything.
	if got := len(r.MatchingTuples(EmptyAttrSet, NewPattern(2))); got != 4 {
		t.Errorf("empty set should match all tuples, got %d", got)
	}
	if got := len(r.MatchingTuples(NewAttrSet(0, 1), NewPattern(2))); got != 4 {
		t.Errorf("all-wildcard pattern should match all tuples, got %d", got)
	}
}
