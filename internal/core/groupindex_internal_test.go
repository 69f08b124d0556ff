package core

import (
	"fmt"
	"slices"
	"testing"
)

// PutRow writes row into slot id of rel, growing it with holes as needed: the
// tests keep a relation holding every row they index, as GroupIndex requires.
func PutRow(rel *Relation, id int, row []int32) {
	if n := id + 1 - rel.Size(); n > 0 {
		rel.Grow(n)
	}
	rel.Set(id, row)
}

// RowCodes returns a copy of tuple t's encoded row, in schema order.
func RowCodes(rel *Relation, t int) []int32 {
	row := make([]int32, rel.Arity())
	for a := range row {
		row[a] = rel.Value(t, a)
	}
	return row
}

// testRelation returns an empty relation of the given arity.
func testRelation(arity int) *Relation {
	names := make([]string, arity)
	for a := range names {
		names[a] = fmt.Sprint("A", a)
	}
	return NewRelation(MustSchema(names...))
}

// TestGroupIndexReusesSlots: a group that empties gives its arena run — and,
// once promoted, its large position — back, so filling and emptying the same
// groups over and over leaves the index the size one round made it.
func TestGroupIndexReusesSlots(t *testing.T) {
	rel := testRelation(2)
	ix := NewGroupIndex(rel, []CFD{{LHS: NewAttrSet(0), RHS: 1, Tp: NewPattern(2)}})
	round := func() {
		rows := make(map[int][]int32)
		for g := 0; g < 5; g++ {
			for i := 0; i < 4+3*g; i++ { // 4 to 16 members: both sides of smallMax
				id := 100*g + i
				rows[id] = []int32{int32(g), int32(i % 3)}
				PutRow(rel, id, rows[id])
				ix.Insert(id, nil)
			}
		}
		for id := range rows {
			ix.Delete(id, nil)
			rel.Clear(id)
		}
	}
	round()
	arena, large := len(ix.arena), len(ix.large)
	if large == 0 {
		t.Fatal("no group was promoted")
	}
	for i := 0; i < 5; i++ {
		round()
	}
	if len(ix.arena) != arena || len(ix.large) != large || len(ix.groups) != 0 {
		t.Fatalf("after six rounds: arena %d words, %d large positions, %d groups; after one: %d, %d, 0",
			len(ix.arena), len(ix.large), len(ix.groups), arena, large)
	}
	if ix.Tuples(0) != 0 || ix.Groups(0) != 0 || ix.BadTuples(0) != 0 {
		t.Fatalf("counters of an empty index: %d tuples, %d groups, %d bad", ix.Tuples(0), ix.Groups(0), ix.BadTuples(0))
	}
	if one, run, lg := ix.Shape(); one != 0 || run != 0 || lg != 0 {
		t.Fatalf("Shape of an empty index = %d, %d, %d", one, run, lg)
	}
}

// TestGroupIndexOneMemberGroupsTakeNoArena: tuples with distinct X values
// are one-member groups, which live in the group map alone, so the arena
// stays at its one-word sentinel however many there are.
func TestGroupIndexOneMemberGroupsTakeNoArena(t *testing.T) {
	rel := testRelation(3)
	ix := NewGroupIndex(rel, []CFD{
		{LHS: NewAttrSet(0), RHS: 1, Tp: NewPattern(3)},
		{LHS: NewAttrSet(0), RHS: 2, Tp: Pattern{Wildcard, Wildcard, 0}},
	})
	const n = 1000
	for id := 0; id < n; id++ {
		row := []int32{int32(id), int32(id % 7), int32(id % 2)}
		PutRow(rel, id, row)
		ix.Insert(id, nil)
	}
	if len(ix.arena) != 1 || len(ix.large) != 0 {
		t.Fatalf("%d one-member groups: arena %d words, %d large groups; want 1 and 0", n, len(ix.arena), len(ix.large))
	}
	if one, run, lg := ix.Shape(); one != n || run != 0 || lg != 0 {
		t.Fatalf("Shape = %d, %d, %d; want %d, 0, 0", one, run, lg, n)
	}
	// The constant-RHS rule still sees its violators: the odd ids miss 0.
	if bad := ix.Violating(nil)[1]; len(bad) != n/2 || bad[0] != 1 {
		t.Fatalf("Violating under the constant rule: %d tuples from %v, want the %d odd ids", len(bad), bad[:min(3, len(bad))], n/2)
	}
}

// TestGroupIndexRunReturnsToFreeList walks one group through 1 → 2 → 1 → 0
// members: the second member takes a run of the smallest class, the delete
// that leaves one member gives it back to that class's free list, and the
// next group to reach two members takes the same run again. A run of class c
// is a header and 2<<c ids, however many RHS attributes the rules name.
func TestGroupIndexRunReturnsToFreeList(t *testing.T) {
	rel := testRelation(2)
	ix := NewGroupIndex(rel, []CFD{{LHS: NewAttrSet(0), RHS: 1, Tp: NewPattern(2)}})
	rows := [][]int32{{0, 0}, {0, 1}, {1, 0}, {1, 0}}
	for id, row := range rows {
		PutRow(rel, id, row)
	}
	shape := func(step string, one, run int) {
		t.Helper()
		if o, r, l := ix.Shape(); o != one || r != run || l != 0 {
			t.Fatalf("%s: Shape = %d, %d, %d; want %d, %d, 0", step, o, r, l, one, run)
		}
	}
	ix.Insert(0, nil)
	shape("one member", 1, 0)
	ix.Insert(1, nil)
	shape("two members", 0, 1)
	if ix.BadTuples(0) != 2 {
		t.Fatalf("two members disagreeing: %d bad, want 2", ix.BadTuples(0))
	}
	words := len(ix.arena)
	ix.Delete(0, nil)
	shape("back to one", 1, 0)
	if ix.free[0] == 0 {
		t.Fatal("the demoted group's run is not on the free list")
	}
	if ix.BadTuples(0) != 0 || len(violatedRules(ix, 1)) != 0 {
		t.Fatalf("the survivor agrees with itself: %d bad", ix.BadTuples(0))
	}
	ix.Delete(1, nil)
	shape("empty", 0, 0)
	if len(ix.groups) != 0 {
		t.Fatalf("%d groups left", len(ix.groups))
	}
	ix.Insert(2, nil)
	ix.Insert(3, nil)
	shape("another pair", 0, 1)
	if len(ix.arena) != words || ix.free[0] != 0 {
		t.Fatalf("arena %d words, free run %d; want the released run reused at %d words", len(ix.arena), ix.free[0], words)
	}

	for rhs := 1; rhs <= 3; rhs++ {
		rel := testRelation(1 + rhs)
		var rules []CFD
		for a := 1; a <= rhs; a++ {
			rules = append(rules, CFD{LHS: NewAttrSet(0), RHS: a, Tp: NewPattern(1 + rhs)})
		}
		ix := NewGroupIndex(rel, rules)
		row := make([]int32, 1+rhs)
		for id := 0; id < smallMax; id++ {
			words := len(ix.arena)
			PutRow(rel, id, row)
			ix.Insert(id, nil)
			// Members 2, 3 and 5 each move the group to a run of a new class.
			for c := 0; c < smallClasses; c++ {
				if id+1 == 1+1<<c {
					if grown := len(ix.arena) - words; grown != 1+2<<c {
						t.Fatalf("%d RHS attributes: a run of class %d took %d words, want %d", rhs, c, grown, 1+2<<c)
					}
				}
			}
		}
	}
}

// TestGroupIndexShapeThroughEveryClass grows one group from one member
// through runs of every class to a large group and shrinks it back, then
// shrinks a run of five through demotion. Each row is written to the
// relation just before its insert and cleared just after its delete, as the
// engine does, so a read of a stale or missing row — for a run's state, a
// promotion's counts or a walk — shows in the counters, the violating sets,
// Violated or Shape, all checked at every step.
func TestGroupIndexShapeThroughEveryClass(t *testing.T) {
	rel := testRelation(2)
	ix := NewGroupIndex(rel, []CFD{
		{LHS: NewAttrSet(0), RHS: 1, Tp: NewPattern(2)},
		{LHS: NewAttrSet(0), RHS: 1, Tp: Pattern{Wildcard, 5}},
	})
	live := make(map[int][]int32)
	insert := func(id int, row []int32) {
		live[id] = row
		PutRow(rel, id, row)
		ix.Insert(id, nil)
	}
	del := func(id int) {
		ix.Delete(id, nil)
		rel.Clear(id)
		delete(live, id)
	}
	// check holds the index to the live rows, and its Shape to one, run or
	// large group. Shape counts the group by its size, although the index
	// keeps the large group it stores until it empties.
	check := func(step string, shape [3]int) {
		t.Helper()
		var ids []int
		distinct := make(map[int32]bool)
		for id, row := range live {
			ids = append(ids, id)
			distinct[row[1]] = true
		}
		slices.Sort(ids)
		var want [2][]int
		if len(distinct) > 1 {
			want[0] = ids
		}
		if len(distinct) > 1 || !distinct[5] {
			want[1] = ids
		}
		got := ix.Violating(nil)
		var violated []int
		for r := range want {
			if ix.Tuples(r) != len(ids) || ix.Groups(r) != min(len(ids), 1) || ix.BadTuples(r) != len(want[r]) || !slices.Equal(got[r], want[r]) {
				t.Fatalf("%s, rule %d: %d tuples, %d groups, %d bad, violating %v; want %d, %d, %d, %v",
					step, r, ix.Tuples(r), ix.Groups(r), ix.BadTuples(r), got[r], len(ids), min(len(ids), 1), len(want[r]), want[r])
			}
			if want[r] != nil {
				violated = append(violated, r)
			}
		}
		for id := range live {
			if v := violatedRules(ix, id); !slices.Equal(v, violated) {
				t.Fatalf("%s: tuple %d violates rules %v, want %v", step, id, v, violated)
			}
		}
		if one, run, large := ix.Shape(); [3]int{one, run, large} != shape {
			t.Fatalf("%s: Shape = %d, %d, %d; want %v", step, one, run, large, shape)
		}
	}
	const n = 12
	for id := 0; id < n; id++ {
		code := int32(5)
		if id%4 == 0 {
			code = 7
		}
		insert(id, []int32{0, code})
		shape := [3]int{1, 0, 0}
		switch {
		case id >= smallMax:
			shape = [3]int{0, 0, 1}
		case id > 0:
			shape = [3]int{0, 1, 0}
		}
		check(fmt.Sprintf("insert %d", id), shape)
	}
	for i, id := range []int{0, 4, 8, 11, 10, 9, 7, 6, 5, 3, 2, 1} {
		del(id)
		var shape [3]int
		switch left := n - 1 - i; {
		case left > smallMax:
			shape = [3]int{0, 0, 1}
		case left > 1:
			shape = [3]int{0, 1, 0}
		case left == 1:
			shape = [3]int{1, 0, 0}
		}
		if left := n - 1 - i; left > 0 && len(ix.large) != 1 {
			t.Fatalf("delete %d: %d large groups stored, want the one promoted", id, len(ix.large))
		}
		check(fmt.Sprintf("delete %d", id), shape)
	}
	// A run that shrinks is demoted to a one-member group, then dropped.
	for id := 0; id < 5; id++ {
		insert(id, []int32{0, 5 + 2*int32(id%2)})
	}
	check("a run of five", [3]int{0, 1, 0})
	for id := 4; id >= 0; id-- {
		del(id)
		shape := [3]int{0, 1, 0}
		switch id {
		case 1:
			shape = [3]int{1, 0, 0}
		case 0:
			shape = [3]int{}
		}
		check(fmt.Sprintf("run delete %d", id), shape)
	}
}

func violatedRules(ix *GroupIndex, id int) []int {
	var out []int
	ix.Violated(id, func(r int) { out = append(out, r) })
	return out
}
