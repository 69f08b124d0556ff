package core

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// checkDict holds d to the oracle: the same values under the same codes in
// both directions, and a table that is a power of two at most half full.
func checkDict(t *testing.T, d *Dict, oracle map[string]int32) {
	t.Helper()
	if d.Size() != len(oracle) {
		t.Fatalf("size %d, oracle %d", d.Size(), len(oracle))
	}
	for v, want := range oracle {
		if c, ok := d.Lookup(v); !ok || c != want || d.Value(c) != v {
			t.Fatalf("Lookup(%q) = %d,%v (value %q), oracle %d", v, c, ok, d.Value(c), want)
		}
	}
	if n := len(d.slots); n < minDictSlots || n&(n-1) != 0 || 2*d.Size() > n {
		t.Fatalf("%d slots for %d values", n, d.Size())
	}
	used := 0
	for _, slot := range d.slots {
		if slot != 0 {
			used++
		}
	}
	if used != d.Size() {
		t.Fatalf("%d slots in use for %d values", used, d.Size())
	}
}

// TestDictAgainstMap drives seeded random Encode / EncodeBytes / Lookup mixes
// — the empty string, one-byte values, values of several hundred bytes that
// differ only at the end — against a map, checking the whole dictionary at
// every doubling of the table from its first 16 slots on.
func TestDictAgainstMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, oracle := NewDict(), map[string]int32{}
		long := strings.Repeat("a long common prefix ", 20)
		value := func() string {
			switch n := rng.Intn(3000); {
			case n < 30:
				return ""
			case n < 300:
				return string(rune('a' + n%26))
			case n < 600:
				return long + itoa(n)
			default:
				return "v" + itoa(n)
			}
		}
		doublings := 0
		for i := 0; i < 20000; i++ {
			v, slots := value(), len(d.slots)
			want, known := oracle[v]
			switch rng.Intn(3) {
			case 0:
				if c, ok := d.Lookup(v); ok != known || (ok && c != want) {
					t.Fatalf("seed %d: Lookup(%q) = %d,%v, oracle %d,%v", seed, v, c, ok, want, known)
				}
				continue
			case 1:
				if c := d.Encode(v); known && c != want || !known && int(c) != len(oracle) {
					t.Fatalf("seed %d: Encode(%q) = %d, oracle %d,%v of %d", seed, v, c, want, known, len(oracle))
				}
			case 2:
				b := []byte(v)
				c := d.EncodeBytes(b)
				if known && c != want || !known && int(c) != len(oracle) {
					t.Fatalf("seed %d: EncodeBytes(%q) = %d, oracle %d,%v of %d", seed, v, c, want, known, len(oracle))
				}
				for j := range b { // the dictionary keeps its own copy
					b[j] = '#'
				}
			}
			if !known {
				oracle[v] = int32(len(oracle))
			}
			if len(d.slots) != slots {
				if slots != 0 && len(d.slots) != 2*slots {
					t.Fatalf("seed %d: table grew from %d to %d slots", seed, slots, len(d.slots))
				}
				doublings++
				checkDict(t, d, oracle)
			}
		}
		checkDict(t, d, oracle)
		if len(d.slots) < 4096 || doublings < 9 {
			t.Fatalf("seed %d: %d slots after %d doublings: the sweep no longer reaches the large tables", seed, len(d.slots), doublings)
		}
		for code, v := range d.Values() {
			if oracle[v] != int32(code) {
				t.Fatalf("seed %d: code %d is %q, oracle says %d", seed, code, v, oracle[v])
			}
		}
	}
}

// TestDictLazyIndexOverRecoded: values that arrived through AppendRecoded are
// never hashed until the first Lookup; that first Lookup may come from many
// goroutines at once, every later one finds the table built, and Encode and
// EncodeBytes then extend the same dictionary.
func TestDictLazyIndexOverRecoded(t *testing.T) {
	for _, distinct := range []int{0, 1, 7, 8, 9, 500} {
		src := NewRelation(MustSchema("A"))
		oracle := map[string]int32{}
		for i := 0; i < 2*distinct; i++ {
			v := "v" + itoa(i%distinct)
			if err := src.AppendRow([]string{v}); err != nil {
				t.Fatal(err)
			}
			if _, ok := oracle[v]; !ok {
				oracle[v] = int32(len(oracle))
			}
		}
		d := src.Head(src.Size()).Dict(0)
		if d.slots != nil {
			t.Fatalf("%d values: a recoded dictionary was indexed before anyone asked", distinct)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for v, want := range oracle {
					if c, ok := d.Lookup(v); !ok || c != want {
						t.Errorf("%d values: Lookup(%q) = %d,%v, want %d", distinct, v, c, ok, want)
					}
				}
				if _, ok := d.Lookup("absent"); ok {
					t.Errorf("%d values: Lookup found a value nobody encoded", distinct)
				}
			}()
		}
		wg.Wait()
		checkDict(t, d, oracle)
		oracle["new"], oracle["newer"] = d.Encode("new"), d.EncodeBytes([]byte("newer"))
		if oracle["new"] != int32(distinct) || oracle["newer"] != int32(distinct+1) {
			t.Fatalf("%d values: new codes %d and %d", distinct, oracle["new"], oracle["newer"])
		}
		checkDict(t, d, oracle)
	}
}

// TestAppendRowBytes: the byte twin of AppendRow builds the same relation,
// keeps none of the bytes it was handed, and refuses a row of another arity.
func TestAppendRowBytes(t *testing.T) {
	rows := [][]string{{"1", "x", ""}, {"2", "x", "long value"}, {"1", "", ""}, {"1", "x", ""}}
	want, got := NewRelation(MustSchema("A", "B", "C")), NewRelation(MustSchema("A", "B", "C"))
	buf := make([][]byte, 3)
	for _, row := range rows {
		if err := want.AppendRow(row); err != nil {
			t.Fatal(err)
		}
		for a, v := range row {
			buf[a] = append(buf[a][:0], v...) // one scratch buffer per column, overwritten by the next row
		}
		if err := got.AppendRowBytes(buf); err != nil {
			t.Fatal(err)
		}
	}
	sameRelation(t, "AppendRowBytes", got, want)
	if err := got.AppendRowBytes(buf[:2]); err == nil || got.Size() != len(rows) {
		t.Fatalf("short row: err = %v, size %d", err, got.Size())
	}
	if err := got.AppendRow([]string{"1"}); err == nil || err.Error() != got.AppendRowBytes(buf[:1]).Error() {
		t.Fatalf("the two appends word a wrong arity differently: %v", err)
	}
}

// TestReserve: reserving moves no value, leaves room for the rows asked for,
// and at least doubles a column it has to move.
func TestReserve(t *testing.T) {
	r := NewRelation(MustSchema("A", "B"))
	r.Reserve(3)
	for i := 0; i < 3; i++ {
		if err := r.AppendRow([]string{itoa(i), "x"}); err != nil {
			t.Fatal(err)
		}
	}
	before := slices.Clone(r.Column(0))
	r.Reserve(0)
	if c := cap(r.Column(0)); c != 3 {
		t.Fatalf("Reserve(0) moved a column to capacity %d", c)
	}
	r.Reserve(1)
	if c := cap(r.Column(1)); c < 6 {
		t.Fatalf("a full column of 3 grew to capacity %d, want at least 6", c)
	}
	r.Reserve(100)
	if c := cap(r.Column(0)) - r.Size(); c < 100 {
		t.Fatalf("room for %d rows after Reserve(100)", c)
	}
	if !slices.Equal(r.Column(0), before) || r.Size() != 3 || r.Count() != 3 {
		t.Fatalf("Reserve changed the relation: %v, size %d", r.Column(0), r.Size())
	}
}
