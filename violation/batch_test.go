package violation_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/dataset"
	"repro/discovery"
	"repro/rules"
	"repro/violation"
)

// custEngine builds an engine over the Fig. 1 cust relation with the mixed
// fixture rules, optionally bulk loaded.
func custEngine(t *testing.T, load bool, opts violation.Options) *violation.Engine {
	t.Helper()
	fx := fixtures(t)[0]
	eng, err := violation.New(fx.rel.Attributes(), rules.Of(fx.rules...), opts)
	if err != nil {
		t.Fatal(err)
	}
	if load {
		if err := eng.BulkLoad(fx.rel); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// randomOps builds a reproducible mixed op sequence over the cust schema,
// tracking which ids are live so deletes and updates always hit real tuples.
func randomOps(rng *rand.Rand, n int, startLive []int, nextID int) []violation.Op {
	live := append([]int(nil), startLive...)
	ops := make([]violation.Op, 0, n)
	row := func() []string {
		return []string{
			strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(5)),
			"N" + strconv.Itoa(rng.Intn(6)), "S" + strconv.Itoa(rng.Intn(4)),
			"C" + strconv.Itoa(rng.Intn(3)), "Z" + strconv.Itoa(rng.Intn(4)),
		}
	}
	for i := 0; i < n; i++ {
		switch k := rng.Intn(10); {
		case k < 5 || len(live) == 0:
			ops = append(ops, violation.Op{Kind: violation.OpInsert, Values: row()})
			live = append(live, nextID)
			nextID++
		case k < 7:
			at := rng.Intn(len(live))
			ops = append(ops, violation.Op{Kind: violation.OpDelete, ID: live[at]})
			live = append(live[:at], live[at+1:]...)
		default:
			ops = append(ops, violation.Op{Kind: violation.OpUpdate, ID: live[rng.Intn(len(live))], Values: row()})
		}
	}
	return ops
}

// applyPerOp replays ops through the single-op API.
func applyPerOp(t *testing.T, e *violation.Engine, ops []violation.Op) {
	t.Helper()
	for _, op := range ops {
		var err error
		switch op.Kind {
		case violation.OpInsert:
			_, err = e.Insert(op.Values...)
		case violation.OpDelete:
			err = e.Delete(op.ID)
		case violation.OpUpdate:
			err = e.Update(op.ID, op.Values...)
		}
		if err != nil {
			t.Fatalf("per-op replay: %v", err)
		}
	}
}

// assertSameState compares two engines tuple by tuple and report by report.
func assertSameState(t *testing.T, a, b *violation.Engine) {
	t.Helper()
	if a.Size() != b.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Size(), b.Size())
	}
	ra, rb := a.Report(), b.Report()
	if !reflect.DeepEqual(ra.DirtyTuples, rb.DirtyTuples) {
		t.Fatalf("dirty sets differ: %v vs %v", ra.DirtyTuples, rb.DirtyTuples)
	}
	if !reflect.DeepEqual(ra.Violations, rb.Violations) {
		t.Fatalf("violations differ:\n%v\nvs\n%v", ra.Violations, rb.Violations)
	}
	relA, idsA, err := a.Relation()
	if err != nil {
		t.Fatal(err)
	}
	relB, idsB, err := b.Relation()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idsA, idsB) {
		t.Fatalf("live ids differ: %v vs %v", idsA, idsB)
	}
	for i := range idsA {
		if !reflect.DeepEqual(relA.Row(i), relB.Row(i)) {
			t.Fatalf("tuple %d differs: %v vs %v", idsA[i], relA.Row(i), relB.Row(i))
		}
	}
}

// TestApplyBatchMatchesPerOp is the defining parity check: a batch must land
// the engine in exactly the state a per-op replay produces, ids included,
// for every worker count.
func TestApplyBatchMatchesPerOp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	startLive := make([]int, 8)
	for i := range startLive {
		startLive[i] = i
	}
	ops := randomOps(rng, 400, startLive, 8)
	for _, workers := range []int{1, 2, 5, 64} {
		batched := custEngine(t, true, violation.Options{Workers: workers})
		perOp := custEngine(t, true, violation.Options{})
		// Apply in chunks so batches cross each other's inserted ids.
		for i := 0; i < len(ops); i += 32 {
			end := min(i+32, len(ops))
			if _, err := batched.ApplyBatch(ops[i:end]); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		}
		applyPerOp(t, perOp, ops)
		assertSameState(t, batched, perOp)
	}
}

// TestApplyBatchIDs checks the returned ids: one per insert op, in op order,
// continuing the engine's id sequence.
func TestApplyBatchIDs(t *testing.T) {
	eng := custEngine(t, true, violation.Options{})
	row, err := eng.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := eng.ApplyBatch([]violation.Op{
		{Kind: violation.OpInsert, Values: row},
		{Kind: violation.OpDelete, ID: 3},
		{Kind: violation.OpInsert, Values: row},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []int{8, 9}) {
		t.Fatalf("ids = %v, want [8 9]", ids)
	}
	if eng.Size() != 9 {
		t.Fatalf("size = %d, want 9", eng.Size())
	}
}

// TestApplyBatchIntraBatchRefs: later ops may address ids inserted (or
// re-delete ids deleted) earlier in the same batch.
func TestApplyBatchIntraBatchRefs(t *testing.T) {
	eng := custEngine(t, true, violation.Options{})
	row, err := eng.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	clean := []string{"86", "10", "8888888", "Wei", "Main Rd.", "BJ", "100000"}
	ids, err := eng.ApplyBatch([]violation.Op{
		{Kind: violation.OpInsert, Values: row}, // id 8
		{Kind: violation.OpUpdate, ID: 8, Values: clean},
		{Kind: violation.OpInsert, Values: row}, // id 9
		{Kind: violation.OpDelete, ID: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []int{8, 9}) {
		t.Fatalf("ids = %v", ids)
	}
	got, err := eng.Row(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, clean) {
		t.Fatalf("row 8 = %v, want the updated values", got)
	}
	if _, err := eng.Row(9); !errors.Is(err, violation.ErrNotFound) {
		t.Fatalf("row 9 after intra-batch delete: err = %v, want ErrNotFound", err)
	}
	// Deleting an id already deleted within a batch fails the whole batch.
	if _, err := eng.ApplyBatch([]violation.Op{
		{Kind: violation.OpDelete, ID: 8},
		{Kind: violation.OpDelete, ID: 8},
	}); !errors.Is(err, violation.ErrNotFound) {
		t.Fatalf("double delete in one batch: err = %v, want ErrNotFound", err)
	}
	if _, err := eng.Row(8); err != nil {
		t.Fatalf("tuple 8 must survive the failed batch: %v", err)
	}
}

// TestApplyBatchAtomic: one bad op anywhere voids the whole batch.
func TestApplyBatchAtomic(t *testing.T) {
	eng := custEngine(t, true, violation.Options{})
	before := eng.Report()
	epoch := eng.Epoch()
	row, err := eng.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]violation.Op{
		{{Kind: violation.OpInsert, Values: row}, {Kind: violation.OpInsert, Values: []string{"too", "short"}}},
		{{Kind: violation.OpInsert, Values: row}, {Kind: violation.OpDelete, ID: 99}},
		{{Kind: violation.OpInsert, Values: row}, {Kind: violation.OpUpdate, ID: -1, Values: row}},
		{{Kind: violation.OpInsert, Values: row}, {Kind: "bogus"}},
	}
	for i, ops := range cases {
		if _, err := eng.ApplyBatch(ops); err == nil {
			t.Fatalf("case %d: batch with a bad op must error", i)
		}
	}
	if eng.Size() != 8 {
		t.Fatalf("size = %d after failed batches, want 8", eng.Size())
	}
	if eng.Epoch() != epoch {
		t.Fatalf("epoch moved across failed batches: %d -> %d", epoch, eng.Epoch())
	}
	after := eng.Report()
	if !reflect.DeepEqual(before, after) {
		t.Fatal("report changed across failed batches")
	}
	// The failed batches left nothing behind that a valid one trips over: its
	// insert gets the next id, 8.
	if ids, err := eng.ApplyBatch([]violation.Op{{Kind: violation.OpInsert, Values: row}}); err != nil || len(ids) != 1 || ids[0] != 8 {
		t.Fatalf("valid batch after the failed ones: ids=%v err=%v", ids, err)
	}
	if eng.Size() != 9 || eng.Epoch() != epoch+1 {
		t.Fatalf("size %d, epoch %d after one valid batch", eng.Size(), eng.Epoch())
	}
	// An empty batch is a no-op, not an error.
	ids, err := eng.ApplyBatch(nil)
	if err != nil || ids != nil {
		t.Fatalf("empty batch: ids=%v err=%v", ids, err)
	}
}

// TestWALAppendFailureAbortsMutation: a failing CommitLog vetoes the
// mutation before it is applied.
func TestWALAppendFailureAbortsMutation(t *testing.T) {
	eng := custEngine(t, true, violation.Options{})
	boom := errors.New("disk full")
	eng.AttachWAL(failingLog{err: boom})
	row, err := eng.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert(row...); !errors.Is(err, boom) {
		t.Fatalf("insert with a failing WAL: err = %v, want %v", err, boom)
	}
	if eng.Size() != 8 {
		t.Fatalf("size = %d after vetoed insert, want 8", eng.Size())
	}
	eng.AttachWAL(nil)
	if _, err := eng.Insert(row...); err != nil {
		t.Fatalf("insert after detaching the WAL: %v", err)
	}
}

type failingLog struct{ err error }

func (f failingLog) Append([]violation.Op) error  { return f.err }
func (f failingLog) AppendRules(*rules.Set) error { return f.err }

// TestShardedBulkLoadAgrees: bulk loads agree across worker counts, the
// sequential one included, on a discovered rule set.
func TestShardedBulkLoadAgrees(t *testing.T) {
	fx := fixtures(t)[1]
	var reports []*violation.Report
	for _, opts := range []violation.Options{{}, {Workers: 1}, {Workers: 3}, {Workers: 1000}} {
		eng, err := violation.New(fx.rel.Attributes(), rules.Of(fx.rules...), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.BulkLoad(fx.rel); err != nil {
			t.Fatal(err)
		}
		reports = append(reports, eng.Report())
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("report %d differs from report 0", i)
		}
	}
}

// TestEpochAndSnapshotReuse: reads at one epoch share the snapshot; a
// mutation invalidates it.
func TestEpochAndSnapshotReuse(t *testing.T) {
	eng := custEngine(t, true, violation.Options{})
	r1, r2 := eng.Report(), eng.Report()
	if len(r1.DirtyTuples) > 0 && &r1.DirtyTuples[0] != &r2.DirtyTuples[0] {
		t.Fatal("reads at one epoch must share the cached snapshot")
	}
	id, err := eng.Insert("44", "131", "5555555", "Amy", "High St.", "GLA", "EH4 1DT")
	if err != nil {
		t.Fatal(err)
	}
	r3 := eng.Report()
	if reflect.DeepEqual(r1.DirtyTuples, r3.DirtyTuples) {
		t.Fatal("snapshot must be rebuilt after a mutation")
	}
	if err := eng.Delete(id); err != nil {
		t.Fatal(err)
	}
	if got := eng.Dirty(); !reflect.DeepEqual(got, r1.DirtyTuples) {
		t.Fatalf("dirty after undo = %v, want %v", got, r1.DirtyTuples)
	}
}

// eventLog is an EngineObserver that records every event it is handed.
type eventLog struct{ events []string }

func (l *eventLog) ObserveCommit(kind string, ops int, _ float64) {
	l.events = append(l.events, "commit "+kind+" "+strconv.Itoa(ops))
}

// ObserveSwap records the swap's shape; a build time outside [0, the swap's
// duration] is appended to the event, so that no expected event matches it.
func (l *eventLog) ObserveSwap(added, removed, retained int, build, seconds float64) {
	ev := fmt.Sprintf("swap %d %d %d", added, removed, retained)
	if build < 0 || build > seconds {
		ev += fmt.Sprintf(" build %vs of a %vs swap", build, seconds)
	}
	l.events = append(l.events, ev)
}

func (l *eventLog) ObserveSnapshot(patched bool, _ float64) {
	l.events = append(l.events, "snapshot patched="+strconv.FormatBool(patched))
}

// TestEngineObserverEvents: an attached observer gets one event per commit,
// swap and snapshot refresh — a bulk load's report rebuilt in full, later
// ones patched by delta — and a detached one gets none.
func TestEngineObserverEvents(t *testing.T) {
	fx := fixtures(t)[0]
	eng := custEngine(t, false, violation.Options{Workers: 2})
	rec := &eventLog{}
	eng.SetObserver(rec)
	if err := eng.BulkLoad(fx.rel); err != nil {
		t.Fatal(err)
	}
	if eng.Report().Clean() {
		t.Fatal("fixture must be dirty")
	}
	row := []string{"44", "131", "5555555", "Amy", "High St.", "GLA", "EH4 1DT"}
	id, err := eng.Insert(row...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyBatch([]violation.Op{{Kind: violation.OpDelete, ID: id}, {Kind: violation.OpInsert, Values: row}}); err != nil {
		t.Fatal(err)
	}
	eng.Report()
	// Dropping the last two rules keeps four of six.
	if _, err := eng.SwapRules(context.Background(), rules.Of(fx.rules[:4]...)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SwapRules(context.Background(), rules.Of()); err != nil {
		t.Fatal(err)
	}
	if !eng.Report().Clean() {
		t.Fatal("a report under no rules must be clean")
	}
	eng.SetObserver(nil)
	if _, err := eng.Insert(row...); err != nil {
		t.Fatal(err)
	}
	eng.Report()
	want := []string{
		"commit bulkload " + strconv.Itoa(fx.rel.Size()),
		"snapshot patched=false",
		"commit insert 1",
		"commit batch 2",
		"snapshot patched=true",
		"swap 0 2 4",
		"swap 0 4 0",
		"snapshot patched=true",
	}
	if !reflect.DeepEqual(rec.events, want) {
		t.Fatalf("events\n%q\nwant\n%q", rec.events, want)
	}
}

// churnEngine is the set-up of the benchmarks below, run before their
// timers: a 40,000-row Tax engine (2 % noise) under the rules FastCFD mines
// from the instance's first 2,000 rows (support 60, at most 2 LHS
// attributes), as the serve-ingest workload drives it. inserts holds batches
// of 256 insert ops over rows the engine does not hold yet.
func churnEngine(b testing.TB, opts violation.Options) (eng *violation.Engine, set *rules.Set, inserts [][]violation.Op) {
	const rows, batches, size = 40000, 60, 256
	tax, err := dataset.Tax(dataset.TaxConfig{Size: rows + batches*size, Arity: 7, CF: 0.7, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	set, err = discovery.NewEngine(discovery.AlgFastCFD, tax.Head(2000),
		discovery.WithSupport(60), discovery.WithMaxLHS(2)).Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	data, _ := dataset.InjectNoise(tax.Head(rows), 0.02, 1)
	eng, err = violation.New(tax.Attributes(), set, opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.BulkLoad(data); err != nil {
		b.Fatal(err)
	}
	inserts = make([][]violation.Op, batches)
	for i := range inserts {
		inserts[i] = make([]violation.Op, size)
		for j := range inserts[i] {
			inserts[i][j] = violation.Op{Kind: violation.OpInsert, Values: tax.Row(rows + i*size + j)}
		}
	}
	b.Logf("%d rules", set.Len())
	return eng, set, inserts
}

// churnRound applies churnEngine's insert batches, then one batch deleting
// each batch's tuples again: the batch half of a serve-ingest round.
func churnRound(tb testing.TB, eng *violation.Engine, inserts [][]violation.Op) {
	deletes := make([][]violation.Op, 0, len(inserts))
	for _, ops := range inserts {
		ids, err := eng.ApplyBatch(ops)
		if err != nil {
			tb.Fatal(err)
		}
		del := make([]violation.Op, len(ids))
		for j, id := range ids {
			del[j] = violation.Op{Kind: violation.OpDelete, ID: id}
		}
		deletes = append(deletes, del)
	}
	for _, ops := range deletes {
		if _, err := eng.ApplyBatch(ops); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkApplyBatchChurn times the batch path on churnEngine: per
// iteration 60 batches of 256 inserts and 60 batches deleting those tuples
// again. ms/batch is the wall time per batch.
func BenchmarkApplyBatchChurn(b *testing.B) {
	eng, _, inserts := churnEngine(b, violation.Options{})
	b.ResetTimer()
	for range b.N {
		churnRound(b, eng, inserts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*2*len(inserts)), "ms/batch")
}

// BenchmarkSwapRebuild times the index builds of a rule swap on churnEngine,
// on one worker: per iteration a swap to the empty rule set, which drops
// every index, and one back, which rebuilds them all from the relation.
func BenchmarkSwapRebuild(b *testing.B) {
	eng, set, _ := churnEngine(b, violation.Options{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := eng.SwapRules(ctx, rules.Of()); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.SwapRules(ctx, set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwapRemined times a rule swap shaped like a remine's, on
// churnEngine at two workers: per iteration a swap to the rule set FastCFD
// mines from the engine's own noisy live rows (k = 60, at most two LHS
// attributes; almost every rule carries LHS constants), and one back.
func BenchmarkSwapRemined(b *testing.B) {
	eng, set, _ := churnEngine(b, violation.Options{Workers: 2})
	live, _, err := eng.Relation()
	if err != nil {
		b.Fatal(err)
	}
	remined, err := discovery.NewEngine(discovery.AlgFastCFD, live,
		discovery.WithSupport(60), discovery.WithMaxLHS(2)).Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("remined %d rules", remined.Len())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := eng.SwapRules(ctx, remined); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.SwapRules(ctx, set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReload times a restart: per iteration an OpenStore and a Load of
// the store churnEngine leaves after its 60 insert batches, compacted, with
// a log tail of four batches deleting 256 tuples each.
func BenchmarkReload(b *testing.B) {
	eng, _, inserts := churnEngine(b, violation.Options{})
	for _, ops := range inserts {
		if _, err := eng.ApplyBatch(ops); err != nil {
			b.Fatal(err)
		}
	}
	dir := b.TempDir()
	st, err := violation.OpenStore(dir, violation.StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Compact(eng); err != nil {
		b.Fatal(err)
	}
	eng.AttachWAL(st)
	for i := range 4 {
		del := make([]violation.Op, len(inserts[i]))
		for j := range del {
			del[j] = violation.Op{Kind: violation.OpDelete, ID: 1000*i + j}
		}
		if _, err := eng.ApplyBatch(del); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	want := eng.Size()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		st, err := violation.OpenStore(dir, violation.StoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		got, ok, err := st.Load(violation.Options{})
		if err != nil || !ok || got.Size() != want {
			b.Fatalf("Load: ok %v, err %v", ok, err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuspectsRepairs times the walk of the violating groups on
// churnEngine, on one worker: per iteration one Suspects and one Repairs.
func BenchmarkSuspectsRepairs(b *testing.B) {
	eng, _, _ := churnEngine(b, violation.Options{Workers: 1})
	b.ResetTimer()
	for range b.N {
		if len(eng.Suspects()) == 0 || len(eng.Repairs()) == 0 {
			b.Fatal("the noisy instance has no suspects")
		}
	}
}

// BenchmarkTupleViolations times point reads on churnEngine, on one worker:
// per iteration 1,000 TupleViolations calls on ids spread over the relation.
func BenchmarkTupleViolations(b *testing.B) {
	eng, _, _ := churnEngine(b, violation.Options{Workers: 1})
	const calls = 1000
	stride := eng.NextID() / calls
	b.ResetTimer()
	for range b.N {
		for i := range calls {
			if _, err := eng.TupleViolations(i * stride); err != nil {
				b.Fatal(err)
			}
		}
	}
}
