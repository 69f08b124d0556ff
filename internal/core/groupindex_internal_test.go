package core

import "testing"

// TestGroupIndexReusesSlots: a group that empties gives its arena run — and,
// once promoted, its large position — back, so filling and emptying the same
// groups over and over leaves the index the size one round made it.
func TestGroupIndexReusesSlots(t *testing.T) {
	ix := NewGroupIndex([]CFD{{LHS: NewAttrSet(0), RHS: 1, Tp: NewPattern(2)}})
	round := func() {
		rows := make(map[int][]int32)
		for g := 0; g < 5; g++ {
			for i := 0; i < 4+3*g; i++ { // 4 to 16 members: both sides of smallMax
				id := 100*g + i
				rows[id] = []int32{int32(g), int32(i % 3)}
				ix.Insert(id, rows[id], nil)
			}
		}
		for id, row := range rows {
			ix.Delete(id, row, nil)
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
}
