package itemset

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixture"
)

// kernelFixtures are relations whose closed-set search has many first-level
// branches of uneven size, plus the degenerate columns the counting split
// must survive: one value, (almost surely) all distinct.
func kernelFixtures() map[string]*core.Relation {
	return map[string]*core.Relation{
		"cust":       fixture.Cust(),
		"random":     fixture.Random(7, 400, []int{2, 3, 5, 8, 13}),
		"corr":       fixture.RandomCorrelated(3, 500, 6, 7),
		"degenerate": fixture.Random(5, 60, []int{1, 1 << 30, 3, 2}),
	}
}

// referenceMineClosed is the closed-set search as it was written before the
// counting split — a map of buckets per attribute per node, candidates sorted
// by a global item index — kept as the order-included reference for MineClosed.
func referenceMineClosed(r *core.Relation, minsup int) []closedPattern {
	n, arity := r.Size(), r.Arity()
	if n < minsup || n == 0 {
		return nil
	}
	index := make([]map[int32]int, arity)
	next := 0
	for a := 0; a < arity; a++ {
		counts := make(map[int32]int)
		for _, v := range r.Column(a) {
			counts[v]++
		}
		var values []int32
		for v, c := range counts {
			if c >= minsup {
				values = append(values, v)
			}
		}
		slices.Sort(values)
		index[a] = make(map[int32]int, len(values))
		for _, v := range values {
			index[a][v] = next
			next++
		}
	}
	closure := func(tids []int32) (core.AttrSet, core.Pattern) {
		attrs, tp := core.EmptyAttrSet, core.NewPattern(arity)
		for a := 0; a < arity; a++ {
			if v, ok := constantOn(r.Column(a), tids); ok {
				attrs = attrs.Add(a)
				tp[a] = v
			}
		}
		return attrs, tp
	}
	var out []closedPattern
	var expand func(cAttrs core.AttrSet, tids []int32, coreIdx int)
	expand = func(cAttrs core.AttrSet, tids []int32, coreIdx int) {
		type candidate struct {
			idx  int
			tids []int32
		}
		var cands []candidate
		for a := 0; a < arity; a++ {
			if cAttrs.Has(a) {
				continue
			}
			buckets := make(map[int32][]int32)
			for _, t := range tids {
				buckets[r.Column(a)[t]] = append(buckets[r.Column(a)[t]], t)
			}
			for v, b := range buckets {
				if idx, ok := index[a][v]; ok && len(b) >= minsup && idx > coreIdx {
					cands = append(cands, candidate{idx, b})
				}
			}
		}
		slices.SortFunc(cands, func(x, y candidate) int { return x.idx - y.idx })
		for _, cand := range cands {
			newAttrs, newTp := closure(cand.tids)
			ok := true
			newAttrs.Diff(cAttrs).ForEach(func(b int) {
				if index[b][newTp[b]] < cand.idx {
					ok = false
				}
			})
			if ok {
				out = append(out, closedPattern{Attrs: newAttrs, Tp: newTp})
				expand(newAttrs, cand.tids, cand.idx)
			}
		}
	}
	all := make([]int32, n)
	for t := range all {
		all[t] = int32(t)
	}
	rootAttrs, rootTp := closure(all)
	out = append(out, closedPattern{Attrs: rootAttrs, Tp: rootTp})
	expand(rootAttrs, all, -1)
	return out
}

// TestMineClosedWorkersIdentical asserts that the closed-set search returns
// the reference search's slice — same patterns, same order — sequentially
// and, pooled, for every worker count.
func TestMineClosedWorkersIdentical(t *testing.T) {
	for name, r := range kernelFixtures() {
		for _, minsup := range []int{1, 2, 5} {
			seq := mineClosed(t, r, minsup)
			if ref := referenceMineClosed(r, minsup); !reflect.DeepEqual(seq, ref) {
				t.Errorf("%s minsup=%d: %d patterns, the map-based reference finds %d, or in another order", name, minsup, len(seq), len(ref))
			}
			for _, workers := range []int{2, 4, 8} {
				out, err := MineClosed(context.Background(), r, minsup, workers)
				if err != nil {
					t.Fatalf("%s minsup=%d workers=%d: %v", name, minsup, workers, err)
				}
				if par := patterns(out); !reflect.DeepEqual(seq, par) {
					t.Errorf("%s minsup=%d: %d workers return a different slice than one (%d vs %d patterns)",
						name, minsup, workers, len(par), len(seq))
				}
			}
		}
	}
}

// TestMineContextRepeatable asserts that the free-set miner's result does not
// depend on anything but its input: the free sets, their tid lists and their
// closures come out identical, order included, run after run. (It takes no
// worker count; with map buckets the order followed map iteration.)
func TestMineContextRepeatable(t *testing.T) {
	type flat struct {
		Key     string
		Tids    []int32
		Closure string
	}
	flatten := func(m *Mining) (free []flat) {
		for _, fs := range m.Free {
			free = append(free, flat{Key: fs.Key(), Tids: fs.Tids, Closure: fs.Closure.Key()})
		}
		return free
	}
	for name, r := range kernelFixtures() {
		for _, k := range []int{1, 2, 5} {
			free := flatten(mine(t, r, k))
			for run := 0; run < 3; run++ {
				if f := flatten(mine(t, r, k)); !reflect.DeepEqual(free, f) {
					t.Fatalf("%s k=%d: run %d differs from the first", name, k, run+2)
				}
			}
		}
	}
}

// TestMineClosedAllocatesPerRunNotPerNode guards the map-free search: with a
// map (or a bucket slice) per attribute per node the run allocates several
// objects per closed set found; with the counting split and per-depth scratch
// the allocations are those of the scratch and of one output block per
// 1,024 closed sets.
func TestMineClosedAllocatesPerRunNotPerNode(t *testing.T) {
	r := fixture.Random(11, 3000, []int{4, 6, 9, 12, 20, 30})
	nodes := len(mineClosed(t, r, 2))
	if nodes < 5000 {
		t.Fatalf("fixture too small to amortise the scratch: %d closed sets", nodes)
	}
	allocs := testing.AllocsPerRun(3, func() { _, _ = MineClosed(context.Background(), r, 2, 1) })
	if perNode := allocs / float64(nodes); perNode > 0.1 {
		t.Errorf("%.0f allocations for %d closed sets (%.2f per node), want under 0.1 per node", allocs, nodes, perNode)
	}
}

// TestMineClosedBytesPerSet bounds the bytes a run allocates by the closed
// sets it keeps, 8 B of attribute set and 4 B per attribute of pattern each
// (32 B on this six-attribute fixture). Output grown by append, candidate
// lists grown attribute by attribute or split buffers regrown node by node
// each leave several times that behind as garbage, which is what sets the
// peak memory of a run.
func TestMineClosedBytesPerSet(t *testing.T) {
	r := fixture.Random(11, 3000, []int{4, 6, 9, 12, 20, 30})
	sets := len(mineClosed(t, r, 2))
	for _, workers := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := MineClosed(context.Background(), r, 2, workers); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perSet := float64(after.TotalAlloc-before.TotalAlloc) / float64(sets)
		t.Logf("workers=%d: %d closed sets, %d B allocated: %.0f B per set", workers, sets, after.TotalAlloc-before.TotalAlloc, perSet)
		if perSet > 150 {
			t.Errorf("workers=%d: %.0f B allocated per closed set, want at most 150", workers, perSet)
		}
	}
}

// TestMineClosedCancelledMidSearch cancels the closed-set search after a
// fixed number of nodes and asserts that it returns ctx.Err() having visited
// only a bounded number of further nodes — each worker notices at its next
// node and unwinds without looking again — and that no goroutine outlives
// the call.
func TestMineClosedCancelledMidSearch(t *testing.T) {
	r := fixture.Random(11, 3000, []int{4, 6, 9, 12, 20, 30})
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 4} {
		ctx := fixture.NewCountingContext(500)
		out, err := MineClosed(ctx, r, 2, workers)
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("workers=%d: got %d patterns, err %v; want none, context.Canceled", workers, out.Len(), err)
		}
		// After the cancelling call: one look per worker still inside a
		// branch, one per worker from the pool's dispatch loop, one from the
		// pool's final report.
		if extra := ctx.ChecksAfterCancel(); extra > int64(2*workers+1) {
			t.Errorf("workers=%d: %d context checks after cancellation, want at most %d", workers, extra, 2*workers+1)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the cancelled runs, %d after", before, after)
	}
}
