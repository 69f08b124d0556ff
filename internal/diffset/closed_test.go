package diffset

import (
	"math/bits"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
)

// TestClosedScanAllocatesPerDistinctSet guards the deduplicating scan: the
// empty pattern matches every closed set, and a scan that kept one
// complement per match would allocate several bytes for each; keeping only
// the distinct ones — at most 2^6 − 1 on this fixture — it allocates per
// distinct set.
func TestClosedScanAllocatesPerDistinctSet(t *testing.T) {
	r := fixture.Random(11, 3000, []int{4, 6, 9, 12, 20, 30})
	c := newClosed(t, r)
	scanned := c.closed.Len()
	if scanned < 10000 {
		t.Fatalf("fixture too small: %d closed sets", scanned)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := minimal(c, core.EmptyAttrSet, core.NewPattern(r.Arity()), 0)
	runtime.ReadMemStats(&after)
	perSet := float64(after.TotalAlloc-before.TotalAlloc) / float64(scanned)
	t.Logf("%d closed sets scanned, %d B allocated: %.3f B per set; %d minimal difference sets",
		scanned, after.TotalAlloc-before.TotalAlloc, perSet, len(got))
	if perSet >= 1 {
		t.Errorf("%.2f B allocated per closed set scanned, want under 1", perSet)
	}
}

// TestClosedWideDistinctComplements runs the scan where deduplication frees
// little: twelve attributes, and pairs of tuples that agree on an attribute
// subset and on nothing with any other tuple, every eighth pair on its
// predecessor's subset, so seven in eight closed sets have a complement no
// other has. The backend must still answer like the naive one, and keeping
// the complements distinct must cost a logarithmic number of sorts, not one
// every few complements.
func TestClosedWideDistinctComplements(t *testing.T) {
	const arity, pairs = 12, 600
	names := make([]string, arity)
	for a := range names {
		names[a] = "A" + strconv.Itoa(a)
	}
	r := core.NewRelation(core.MustSchema(names...))
	rng := rand.New(rand.NewSource(1))
	masks := rng.Perm(1<<arity - 1)[:pairs]
	row := make([]string, arity)
	for i, m := range masks {
		if i%8 == 7 {
			m = masks[i-1]
		}
		same, other := "p"+strconv.Itoa(i), "q"+strconv.Itoa(i)
		for a := range row {
			row[a] = same
		}
		if err := r.AppendRow(row); err != nil {
			t.Fatal(err)
		}
		for a := range row {
			if (m+1)&(1<<a) == 0 {
				row[a] = other
			}
		}
		if err := r.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	closed, naive := newClosed(t, r), NewNaive(r)
	empty := core.NewPattern(r.Arity())
	for rhs := 0; rhs < arity; rhs++ {
		if got, want := minimal(closed, core.EmptyAttrSet, empty, rhs), minimal(naive, core.EmptyAttrSet, empty, rhs); !sameSets(got, want) {
			t.Errorf("rhs %d: closed %d sets, naive %d", rhs, len(got), len(want))
		}
	}
	var d distinctSets
	all := r.Schema().All()
	for id := range closed.closed.All() {
		if c := all.Diff(closed.closed.Attrs(id)); !c.IsEmpty() {
			d.add(c)
		}
	}
	n := len(d.sets())
	if n < pairs*7/8 {
		t.Fatalf("%d distinct complements, want at least %d", n, pairs*7/8)
	}
	// A buffer that doubles from 16 sorts about log2(n/16) + 2 times.
	if limit := bits.Len(uint(n)) + 1; d.sorts > limit {
		t.Errorf("%d sorts to keep %d distinct complements, want at most %d", d.sorts, n, limit)
	}
}

// FuzzBackendsAgree holds the closed-set backend to the naive one on small
// relations decoded from the input: a header byte each for the arity (1–8),
// the row count (0–40), the domain size (1–16), the RHS and the number of
// pattern items (0–2); two bytes per item, its attribute and the row its
// value is taken from; then one byte per cell, row by row, zero once the
// input runs out.
func FuzzBackendsAgree(f *testing.F) {
	f.Add([]byte{})
	for _, r := range backendFixtures() {
		rows := min(r.Size(), 40)
		for items := 0; items <= 2; items++ {
			seed := []byte{byte(r.Arity() - 1), byte(rows), 15, 0, byte(items)}
			for i := 0; i < items; i++ {
				seed = append(seed, byte(i+1), byte(3*i))
			}
			for t := 0; t < rows; t++ {
				for a := 0; a < r.Arity(); a++ {
					seed = append(seed, byte(r.Value(t, a)))
				}
			}
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		arity, rows, domain := 1+next()%8, next()%41, 1+next()%16
		rhs, items := next()%arity, next()%3
		type item struct{ attr, row int }
		pattern := make([]item, items)
		for i := range pattern {
			pattern[i] = item{next() % arity, next()}
		}
		names := make([]string, arity)
		for a := range names {
			names[a] = "A" + strconv.Itoa(a)
		}
		r := core.NewRelation(core.MustSchema(names...))
		row := make([]string, arity)
		for range rows {
			for a := range row {
				row[a] = strconv.Itoa(next() % domain)
			}
			if err := r.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		attrs, tp := core.EmptyAttrSet, core.NewPattern(arity)
		for _, it := range pattern {
			if rows == 0 {
				return
			}
			attrs = attrs.Add(it.attr)
			tp[it.attr] = r.Value(it.row%rows, it.attr)
		}
		if attrs.Has(rhs) {
			return
		}
		got := minimal(newClosed(t, r), attrs, tp, rhs)
		if want := minimal(NewNaive(r), attrs, tp, rhs); !sameSets(got, want) {
			t.Errorf("%d×%d relation, pattern %v, rhs %d: closed %v, naive %v", rows, arity, tp, rhs, got, want)
		}
	})
}
