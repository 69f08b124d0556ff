package diffset

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
)

// minimizeByMap is Minimize as it was before it sorted a copy: duplicates
// dropped through a map, then the same order and subset filter. It is the
// reference the map-free version is held to, output order included.
func minimizeByMap(sets []core.AttrSet) []core.AttrSet {
	uniq := make(map[core.AttrSet]bool, len(sets))
	for _, s := range sets {
		uniq[s] = true
	}
	all := make([]core.AttrSet, 0, len(uniq))
	for s := range uniq {
		all = append(all, s)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Len() != all[j].Len() {
			return all[i].Len() < all[j].Len()
		}
		return all[i] < all[j]
	})
	var out []core.AttrSet
	for _, s := range all {
		minimal := true
		for _, m := range out {
			if m.SubsetOf(s) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, s)
		}
	}
	return out
}

// checkMinimize compares Minimize with the reference on one input and checks
// that the input survives the call.
func checkMinimize(t *testing.T, sets []core.AttrSet) {
	t.Helper()
	before := slices.Clone(sets)
	got, want := Minimize(sets), minimizeByMap(sets)
	if !slices.Equal(got, want) {
		t.Fatalf("Minimize(%v) = %v, reference %v", before, got, want)
	}
	if !slices.Equal(sets, before) {
		t.Fatalf("Minimize changed its input %v to %v", before, sets)
	}
}

func TestMinimizeMatchesMapReference(t *testing.T) {
	full := core.FullAttrSet(core.MaxArity)
	chain := []core.AttrSet{core.NewAttrSet(3, 5, 7, 9), core.NewAttrSet(3, 5, 7), core.NewAttrSet(3, 5), core.NewAttrSet(3)}
	for _, sets := range [][]core.AttrSet{
		nil,
		{},
		{core.EmptyAttrSet},
		{full},
		{full, core.EmptyAttrSet, full},
		{full, core.NewAttrSet(63), core.NewAttrSet(0, 63)},
		chain,
		append(slices.Clone(chain), chain...),
	} {
		checkMinimize(t, sets)
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Few attributes make subsets and duplicates common, many make them rare.
		width := []int{3, 6, 12, 64}[rng.Intn(4)]
		sets := make([]core.AttrSet, rng.Intn(60))
		for i := range sets {
			switch rng.Intn(12) {
			case 0:
				sets[i] = core.EmptyAttrSet
			case 1:
				sets[i] = core.FullAttrSet(width)
			case 2, 3:
				if i > 0 {
					sets[i] = sets[rng.Intn(i)]
					break
				}
				fallthrough
			default:
				sets[i] = core.AttrSet(rng.Uint64()) & core.AttrSet(rng.Uint64()) & core.FullAttrSet(width)
			}
		}
		checkMinimize(t, sets)
	}
}

// FuzzMinimize holds Minimize to the map-based reference on arbitrary
// multisets: every eight input bytes are one attribute set, masked to few
// attributes when the first byte says so.
func FuzzMinimize(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 16))                                          // the empty set, twice
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0})    // a chain
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 1, 2, 3})   // the full set and a short tail
	f.Add([]byte{6, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 9}) // incomparable sets
	f.Fuzz(func(t *testing.T, data []byte) {
		mask := core.FullAttrSet(core.MaxArity)
		if len(data) > 0 && data[0]%2 == 1 {
			mask = core.FullAttrSet(5)
		}
		var sets []core.AttrSet
		for ; len(data) >= 8; data = data[8:] {
			sets = append(sets, core.AttrSet(binary.LittleEndian.Uint64(data))&mask)
		}
		checkMinimize(t, sets)
	})
}
