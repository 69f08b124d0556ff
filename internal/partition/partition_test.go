package partition

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
)

func attr(t *testing.T, r *core.Relation, name string) int {
	t.Helper()
	a, ok := r.Schema().Index(name)
	if !ok {
		t.Fatalf("unknown attribute %q", name)
	}
	return a
}

func code(t *testing.T, r *core.Relation, name, value string) int32 {
	t.Helper()
	v, ok := r.Dict(attr(t, r, name)).Lookup(value)
	if !ok {
		t.Fatalf("value %q not in %s", value, name)
	}
	return v
}

// attrPartition is the one-off form of FromAttribute.
func attrPartition(r *core.Relation, a int) Partition {
	return FromAttribute(FromItem(AllTids(r.Size())), a, NewRefiner(r))
}

func TestFromAttribute(t *testing.T) {
	r := fixture.Cust()
	p := attrPartition(r, attr(t, r, "CC"))
	// CC splits r0 into {t1..t4,t8} and {t5,t6,t7}: 2 classes, both kept.
	if p.Stripped() != 2 {
		t.Fatalf("CC partition has %d stripped classes, want 2", p.Stripped())
	}
	if p.Covered != 8 || p.NumClasses() != 2 || p.SumSizes() != 8 {
		t.Errorf("Covered=%d NumClasses=%d SumSizes=%d", p.Covered, p.NumClasses(), p.SumSizes())
	}

	p = attrPartition(r, attr(t, r, "STR"))
	// STR values: Tree Ave.(2), 5th Ave(1), Elm Str.(1), High St.(2), Port PI(1), 3rd Str.(1).
	if p.Stripped() != 2 || p.NumClasses() != 6 {
		t.Errorf("STR partition: stripped=%d total=%d, want 2/6", p.Stripped(), p.NumClasses())
	}
}

func TestFromItem(t *testing.T) {
	r := fixture.Cust()
	items := ItemTids(r, AllTids(r.Size()))[attr(t, r, "AC")]
	p := FromItem(items[code(t, r, "AC", "908")])
	if p.Covered != 4 || p.Stripped() != 1 || len(p.Class(0)) != 4 {
		t.Errorf("AC=908 partition wrong: covered=%d classes=%v", p.Covered, classSets(p))
	}
	p = FromItem(items[code(t, r, "AC", "212")])
	if p.Covered != 1 || p.Stripped() != 0 || p.NumClasses() != 1 {
		t.Errorf("AC=212 partition wrong: covered=%d classes=%d", p.Covered, p.Stripped())
	}
}

func TestFromSetMatchesProduct(t *testing.T) {
	r := fixture.Cust()
	cc, ac := attr(t, r, "CC"), attr(t, r, "AC")
	prod := NewRefiner(r).Refine(attrPartition(r, cc), ac, core.Wildcard)
	prod.Covered = r.Size()
	direct := FromSet(r, core.NewAttrSet(cc, ac), core.NewPattern(r.Arity()))
	if prod.NumClasses() != direct.NumClasses() {
		t.Errorf("product classes=%d direct=%d", prod.NumClasses(), direct.NumClasses())
	}
	if prod.SumSizes() != direct.SumSizes() {
		t.Errorf("product sizes=%d direct=%d", prod.SumSizes(), direct.SumSizes())
	}
}

func TestProductConstantPattern(t *testing.T) {
	r := fixture.Cust()
	cc, zip := attr(t, r, "CC"), attr(t, r, "ZIP")
	// ([CC,ZIP], (01, _)) : product of (CC=01) and (ZIP, _), from either side.
	c01 := code(t, r, "CC", "01")
	tp := core.NewPattern(r.Arity())
	tp[cc] = c01
	direct := FromSet(r, core.NewAttrSet(cc, zip), tp)
	rf := NewRefiner(r)
	for side, prod := range []Partition{
		rf.Refine(FromItem(ItemTids(r, AllTids(r.Size()))[cc][c01]), zip, core.Wildcard),
		rf.Refine(attrPartition(r, zip), cc, c01),
	} {
		prod.Covered = direct.Covered
		if prod.NumClasses() != direct.NumClasses() || prod.SumSizes() != direct.SumSizes() {
			t.Errorf("side %d: product=%d/%d direct=%d/%d classes/sizes", side,
				prod.NumClasses(), prod.SumSizes(), direct.NumClasses(), direct.SumSizes())
		}
	}
	// CC=01 tuples grouped by ZIP: {t1,t2,t4} (07974) and {t3,t8} (01202).
	if direct.Stripped() != 2 {
		t.Errorf("expected 2 stripped classes, got %d", direct.Stripped())
	}
}

func TestProductEmpty(t *testing.T) {
	r := fixture.Cust()
	empty := Partition{}
	prod := NewRefiner(r).Refine(empty, attr(t, r, "CC"), core.Wildcard)
	if prod.Stripped() != 0 {
		t.Error("product with empty partition must have no classes")
	}
}

func TestRefinesRHSVariable(t *testing.T) {
	r := fixture.Cust()
	cc, ac, ct := attr(t, r, "CC"), attr(t, r, "AC"), attr(t, r, "CT")
	wild := core.NewPattern(r.Arity())
	// f1: [CC,AC] -> CT holds, so refining [CC,AC] by CT splits nothing.
	parent := FromSet(r, core.NewAttrSet(cc, ac), wild)
	elem := FromSet(r, core.NewAttrSet(cc, ac, ct), wild)
	if !RefinesRHSVariable(parent, elem) {
		t.Error("f1 should be reported valid")
	}
	// [CC,ZIP] -> STR does not hold.
	zip, str := attr(t, r, "ZIP"), attr(t, r, "STR")
	parent = FromSet(r, core.NewAttrSet(cc, zip), wild)
	elem = FromSet(r, core.NewAttrSet(cc, zip, str), wild)
	if RefinesRHSVariable(parent, elem) {
		t.Error("[CC,ZIP] -> STR should be reported invalid")
	}
}

func TestRefinesRHSConstant(t *testing.T) {
	r := fixture.Cust()
	ac, ct := attr(t, r, "AC"), attr(t, r, "CT")
	// (AC -> CT, (908 || MH)) holds.
	tpParent := core.NewPattern(r.Arity())
	tpParent[ac] = code(t, r, "AC", "908")
	parent := FromSet(r, core.NewAttrSet(ac), tpParent)
	tpElem := tpParent.Clone()
	tpElem[ct] = code(t, r, "CT", "MH")
	elem := FromSet(r, core.NewAttrSet(ac, ct), tpElem)
	if !RefinesRHSConstant(parent, elem) {
		t.Error("(AC -> CT, (908||MH)) should be reported valid")
	}
	// (AC -> CT, (131 || EDI)) is violated by t8.
	tpParent = core.NewPattern(r.Arity())
	tpParent[ac] = code(t, r, "AC", "131")
	parent = FromSet(r, core.NewAttrSet(ac), tpParent)
	tpElem = tpParent.Clone()
	tpElem[ct] = code(t, r, "CT", "EDI")
	elem = FromSet(r, core.NewAttrSet(ac, ct), tpElem)
	if RefinesRHSConstant(parent, elem) {
		t.Error("(AC -> CT, (131||EDI)) should be reported invalid")
	}
}

// TestProductAgainstDirect cross-checks the incremental product against the
// direct partition construction on random relations and random attribute pairs.
func TestProductAgainstDirect(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		r := fixture.Random(seed, 200, []int{3, 4, 2, 6})
		wild := core.NewPattern(r.Arity())
		for a := 0; a < r.Arity(); a++ {
			for b := a + 1; b < r.Arity(); b++ {
				prod := NewRefiner(r).Refine(attrPartition(r, a), b, core.Wildcard)
				prod.Covered = r.Size()
				direct := FromSet(r, core.NewAttrSet(a, b), wild)
				if prod.NumClasses() != direct.NumClasses() || prod.SumSizes() != direct.SumSizes() {
					t.Errorf("seed=%d attrs=%d,%d: product %d/%d direct %d/%d",
						seed, a, b, prod.NumClasses(), prod.SumSizes(), direct.NumClasses(), direct.SumSizes())
				}
			}
		}
	}
}
