package violation_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/rules"
	"repro/violation"
)

// rescanReport checks eng's report against the one a fresh engine builds in
// full over eng's live tuples, each pinned at its id: everything but the epoch
// must agree.
func rescanReport(t *testing.T, eng *violation.Engine) {
	t.Helper()
	fresh, err := violation.New(eng.Attributes(), eng.RuleSet(), violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tuples, _, _ := eng.Tuples(0, 0)
	ops := make([]violation.Op, len(tuples))
	for i, tp := range tuples {
		ops[i] = violation.Op{Kind: violation.OpInsert, Values: tp.Values, At: &tp.ID}
	}
	if _, err := fresh.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	got, want := eng.Report(), fresh.Report()
	got.Epoch, want.Epoch = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report\n%+v\nwant the full rescan's\n%+v", got, want)
	}
}

// builds counts the full report builds an eventLog saw.
func builds(rec *eventLog) int {
	n := 0
	for _, ev := range rec.events {
		if ev == "snapshot patched=false" {
			n++
		}
	}
	return n
}

// TestBulkLoadPublishesReport: the report a bulk load builds is the view its
// first read returns, with no second build.
func TestBulkLoadPublishesReport(t *testing.T) {
	eng := custEngine(t, true, violation.Options{Workers: 2})
	rec := &eventLog{}
	eng.SetObserver(rec)
	if eng.Report().Epoch != eng.Epoch() {
		t.Fatal("the report is not at the engine's epoch")
	}
	if n := builds(rec); n != 0 {
		t.Fatalf("the first read after a bulk load built the report %d times", n)
	}
	rescanReport(t, eng)
}

// TestLoadPublishesReport: a restore publishes the report it builds at the
// snapshot's WAL sequence, so the first read after replaying a WAL tail only
// patches it.
func TestLoadPublishesReport(t *testing.T) {
	dir := t.TempDir()
	eng, st := durableEngine(t, dir, violation.StoreOptions{})
	insertN(t, eng, 3)
	if err := eng.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	back := reload(t, dir)
	rec := &eventLog{}
	back.SetObserver(rec)
	if got := back.Report().Epoch; got != eng.Epoch() {
		t.Fatalf("restored report at epoch %d, want %d", got, eng.Epoch())
	}
	if n := builds(rec); n != 0 {
		t.Fatalf("the first read after a restore built the report %d times", n)
	}
	rescanReport(t, back)
}

// TestRebaseKeepsReport: on a first boot — bulk load, compaction, then the
// re-base AttachWAL makes onto the WAL sequence — the bulk load's report
// survives the re-base, re-stamped with the new epoch.
func TestRebaseKeepsReport(t *testing.T) {
	st, err := violation.OpenStore(t.TempDir(), violation.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := custEngine(t, true, violation.Options{})
	if err := st.Compact(eng); err != nil {
		t.Fatal(err)
	}
	before := eng.Epoch()
	eng.AttachWAL(st)
	if eng.Epoch() == before {
		t.Fatalf("epoch %d did not move onto the WAL sequence %d", before, st.Seq())
	}
	rec := &eventLog{}
	eng.SetObserver(rec)
	if got := eng.Report().Epoch; got != st.Seq() {
		t.Fatalf("report at epoch %d, want the WAL sequence %d", got, st.Seq())
	}
	if n := builds(rec); n != 0 {
		t.Fatalf("the first read after a re-base built the report %d times", n)
	}
	rescanReport(t, eng)
}

// TestRingOverflowBuildsOnce: a read whose last report has left the delta
// history builds the report in full exactly once, and later reads share it.
func TestRingOverflowBuildsOnce(t *testing.T) {
	eng := custEngine(t, false, violation.Options{})
	eng.SetDeltaHistory(4)
	if err := eng.BulkLoad(fixtures(t)[0].rel); err != nil {
		t.Fatal(err)
	}
	eng.Report()
	rec := &eventLog{}
	eng.SetObserver(rec)
	insertN(t, eng, 5)
	eng.Report()
	eng.Report()
	if n := builds(rec); n != 1 || len(rec.events) != 6 {
		t.Fatalf("events %q: want five commits and one full build", rec.events)
	}
	rescanReport(t, eng)
}

// TestReadersRaceBulkLoad races lock-free readers against bulk loads, which
// publish their report under the write lock: every read is internally
// consistent, and a reader's epochs never go back.
func TestReadersRaceBulkLoad(t *testing.T) {
	fx := fixtures(t)[0]
	eng, err := violation.New(fx.rel.Attributes(), rules.Of(fx.rules...), violation.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const loads, readers = 20, 3
	stop := make(chan struct{})
	errCh := make(chan error, readers)
	var wg sync.WaitGroup
	reports := make([][]*violation.Report, readers)
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep := eng.Report()
				if rep.Epoch < last {
					errCh <- fmt.Errorf("reader went back from epoch %d to %d", last, rep.Epoch)
					return
				}
				last = rep.Epoch
				if !slices.IsSorted(eng.Dirty()) {
					errCh <- fmt.Errorf("dirty list not sorted")
					return
				}
				if len(reports[r]) < 64 {
					reports[r] = append(reports[r], rep)
				}
			}
		}()
	}
	for i := range loads {
		if err := eng.BulkLoad(fx.rel); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			insertN(t, eng, 1)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	for _, reps := range reports {
		for _, rep := range reps {
			checkReportConsistent(t, eng, rep)
		}
	}
	rescanReport(t, eng)
}

// TestTuplesPages: a negative start reads from id 0, a page that fills up
// stops at the next live id with more set, and the last page ends at the end
// of the id space with more clear. Holes are skipped and never end a page.
func TestTuplesPages(t *testing.T) {
	eng := custEngine(t, true, violation.Options{})
	if err := eng.Delete(1); err != nil {
		t.Fatal(err)
	}
	all, end, more := eng.Tuples(0, 0)
	if more || end != len(all)+1 {
		t.Fatalf("whole read: %d tuples, next %d, more %v; want next %d and no more", len(all), end, more, len(all)+1)
	}
	page, next, more := eng.Tuples(-5, 2)
	if !more || next != 3 || len(page) != 2 || page[0].ID != 0 || page[1].ID != 2 {
		t.Fatalf("first page from -5: %+v, next %d, more %v; want ids 0 and 2, next 3, more", page, next, more)
	}
	var ids []int
	for start := -5; ; {
		page, next, more := eng.Tuples(start, 2)
		for _, tp := range page {
			ids = append(ids, tp.ID)
		}
		if !more {
			if next != end {
				t.Fatalf("last page ends at %d, want %d", next, end)
			}
			break
		}
		start = next
	}
	want := make([]int, len(all))
	for i, tp := range all {
		want[i] = tp.ID
	}
	if !slices.Equal(ids, want) {
		t.Fatalf("pages of two read ids %v, want %v", ids, want)
	}
}

// TestRuleSetStatsPairs: RuleSetStats returns the rule set and its stats as
// RuleSet and RuleStats do, the i-th stat that of the set's i-th rule, and
// follows a swap.
func TestRuleSetStatsPairs(t *testing.T) {
	fx := fixtures(t)[0]
	eng := custEngine(t, true, violation.Options{})
	check := func(step string) {
		t.Helper()
		set, stats := eng.RuleSetStats()
		if set.Fingerprint() != eng.RuleSet().Fingerprint() || !reflect.DeepEqual(set.Provenance(), eng.RuleSet().Provenance()) {
			t.Fatalf("%s: the set is not the engine's", step)
		}
		if !reflect.DeepEqual(stats, eng.RuleStats()) {
			t.Fatalf("%s: stats %+v, RuleStats %+v", step, stats, eng.RuleStats())
		}
		for i, c := range set.CFDs() {
			if !reflect.DeepEqual(stats[i].Rule, c) {
				t.Fatalf("%s: stat %d is of %v, the set's rule %d is %v", step, i, stats[i].Rule, i, c)
			}
		}
	}
	check("loaded")
	if _, err := eng.SwapRules(context.Background(), rules.Of(fx.rules[2:4]...)); err != nil {
		t.Fatal(err)
	}
	check("swapped")
}
