package violation_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/rules"
	"repro/violation"
)

// checkReportConsistent asserts the internal invariants every snapshot must
// satisfy regardless of when it was taken: violations in rule order with
// ascending tuple ids, and the dirty set exactly the sorted union of them.
func checkReportConsistent(t *testing.T, eng *violation.Engine, rep *violation.Report) {
	t.Helper()
	ruleAt := make(map[string]int, len(eng.Rules()))
	for i, r := range eng.Rules() {
		ruleAt[r.String()] = i
	}
	union := make(map[int]bool)
	last := -1
	for _, v := range rep.Violations {
		at, ok := ruleAt[v.Rule.String()]
		if !ok {
			t.Fatalf("snapshot reports unknown rule %s", v.Rule)
		}
		if at <= last {
			t.Fatalf("snapshot violations out of rule order at %s", v.Rule)
		}
		last = at
		if !sort.IntsAreSorted(v.Tuples) || len(v.Tuples) == 0 {
			t.Fatalf("rule %s: tuples %v not sorted or empty", v.Rule, v.Tuples)
		}
		for _, id := range v.Tuples {
			union[id] = true
		}
	}
	want := make([]int, 0, len(union))
	for id := range union {
		want = append(want, id)
	}
	sort.Ints(want)
	if len(want) == 0 {
		want = nil
	}
	got := rep.DirtyTuples
	if len(got) == 0 {
		got = nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dirty %v is not the union %v of the snapshot's violations", rep.DirtyTuples, want)
	}
}

// TestConcurrentReadersAndWriters hammers one engine from mixed goroutines —
// per-op writers, batch writers and several kinds of readers — and then
// checks (a) every observed snapshot was internally consistent, i.e. no
// reader ever saw a half-applied mutation, and (b) the final state is
// self-consistent: rebuilding an engine from the surviving tuples reproduces
// the violation report exactly. Run under -race this is the engine's
// thread-safety proof.
func TestConcurrentReadersAndWriters(t *testing.T) {
	fx := fixtures(t)[0]
	eng, err := violation.New(fx.rel.Attributes(), rules.Of(fx.rules...), violation.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BulkLoad(fx.rel); err != nil {
		t.Fatal(err)
	}

	const (
		writers        = 4
		batchWriters   = 2
		readers        = 4
		opsPerWriter   = 60
		batchesPerLoop = 15
	)
	var writerWG, readerWG sync.WaitGroup
	errCh := make(chan error, writers+batchWriters+readers)

	// Per-op writers: insert a tuple, mutate it, delete it. Ids are never
	// shared across writers, so every op targets a tuple the writer owns and
	// must succeed.
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWriter; i++ {
				row := fx.rel.Row(rng.Intn(fx.rel.Size()))
				id, err := eng.Insert(row...)
				if err != nil {
					errCh <- err
					return
				}
				if err := eng.Update(id, fx.rel.Row(rng.Intn(fx.rel.Size()))...); err != nil {
					errCh <- err
					return
				}
				if err := eng.Delete(id); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	// Batch writers: insert a small batch, then delete it in one batch.
	for w := 0; w < batchWriters; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < batchesPerLoop; i++ {
				ins := make([]violation.Op, 5)
				for j := range ins {
					ins[j] = violation.Op{Kind: violation.OpInsert, Values: fx.rel.Row(rng.Intn(fx.rel.Size()))}
				}
				ids, err := eng.ApplyBatch(ins)
				if err != nil {
					errCh <- err
					return
				}
				del := make([]violation.Op, len(ids))
				for j, id := range ids {
					del[j] = violation.Op{Kind: violation.OpDelete, ID: id}
				}
				if _, err := eng.ApplyBatch(del); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	reports := make([][]*violation.Report, readers)
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				rep := eng.Report()
				if len(reports[r]) < 64 {
					reports[r] = append(reports[r], rep)
				}
				_ = eng.Dirty()
				_ = eng.Size()
				_ = eng.DirtyCount()
				for _, st := range eng.RuleStats() {
					if st.Violating > st.Support || st.Groups > st.Support {
						errCh <- fmt.Errorf("rule stats out of range: %+v", st)
						return
					}
				}
				// Point reads on ids that may vanish concurrently: only
				// ErrNotFound is acceptable as an error.
				if _, err := eng.Row(8); err != nil && !errors.Is(err, violation.ErrNotFound) {
					errCh <- err
					return
				}
				if _, err := eng.TupleViolations(8); err != nil && !errors.Is(err, violation.ErrNotFound) {
					errCh <- err
					return
				}
				// The repair view walks the live indexes under the read lock:
				// whatever moment it lands on, it is one consistent state.
				suspects := eng.Suspects()
				for i := 1; i < len(suspects); i++ {
					if suspects[i-1] >= suspects[i] {
						errCh <- fmt.Errorf("suspects not strictly ascending: %v", suspects)
						return
					}
				}
				repairs := eng.Repairs()
				for i, rp := range repairs {
					if rp.Current == rp.Suggested {
						errCh <- fmt.Errorf("repair %+v changes nothing", rp)
						return
					}
					if i > 0 && repairs[i-1].Tuple > rp.Tuple {
						errCh <- fmt.Errorf("repairs out of tuple order at %d: %+v", i, repairs)
						return
					}
				}
				// Relation materialises the whole state; sample it.
				if iter%16 == 0 {
					if _, _, err := eng.Relation(); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(r)
	}

	// Readers observe the engine for the whole write phase, then stop.
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Every observed snapshot was consistent.
	for r := range reports {
		for _, rep := range reports[r] {
			checkReportConsistent(t, eng, rep)
		}
	}

	// The final state: every writer cleaned up after itself, so the live
	// tuples and the violation report must equal the bulk-loaded baseline.
	if eng.Size() != fx.rel.Size() {
		t.Fatalf("size = %d after all writers drained, want %d", eng.Size(), fx.rel.Size())
	}
	baseline, err := violation.New(fx.rel.Attributes(), rules.Of(fx.rules...), violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := baseline.BulkLoad(fx.rel); err != nil {
		t.Fatal(err)
	}
	got, want := eng.Report(), baseline.Report()
	got.Epoch, want.Epoch = 0, 0 // mutation counts differ; the state must not
	if !reflect.DeepEqual(got, want) {
		t.Fatal("final report differs from the bulk-loaded baseline")
	}
	checkReportConsistent(t, eng, eng.Report())
	if !reflect.DeepEqual(eng.Repairs(), baseline.Repairs()) || !reflect.DeepEqual(eng.Suspects(), baseline.Suspects()) {
		t.Fatal("final repairs or suspects differ from the bulk-loaded baseline")
	}
}
