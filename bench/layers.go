package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/cfd"
	"repro/cleaning"
	"repro/cluster"
	"repro/dataset"
	"repro/discovery"
	"repro/discovery/monitor"
	"repro/obs"
	"repro/rules"
	"repro/violation"
)

// perLayer lists every per-layer metric the traced replay prints, in
// BENCHMARK.json's order; a test keeps the two in step. Layers are the
// repository's packages. Every metric is measured on every workload: the
// replay pushes the workload's Tax instance through the mining chain (the
// CSV at the workload's support threshold, or for a serving workload the
// sample cfdserve mines at start-up) and through the serving chain (rules
// from the clean sample, the noisy rows, the payload).
var perLayer = []metricDef{
	{Name: "dataset.load_csv_s", Unit: "s"},
	{Name: "dataset.load_rows_per_s", Unit: "1/s", Better: "higher"},

	{Name: "discovery.cfdminer.run_w1_s", Unit: "s"},
	{Name: "discovery.cfdminer.run_w2_s", Unit: "s"},
	{Name: "discovery.cfdminer.parallel_speedup", Unit: "x", Better: "higher"},
	{Name: "discovery.cfdminer.first_rule_s", Unit: "s"},
	{Name: "discovery.cfdminer.rules", Unit: "count"},
	{Name: "discovery.ctane.run_w1_s", Unit: "s"},
	{Name: "discovery.ctane.run_w2_s", Unit: "s"},
	{Name: "discovery.ctane.parallel_speedup", Unit: "x", Better: "higher"},
	{Name: "discovery.ctane.first_rule_s", Unit: "s"},
	{Name: "discovery.ctane.rules", Unit: "count"},
	{Name: "discovery.ctane.limit10_s", Unit: "s"},
	{Name: "discovery.fastcfd.run_w1_s", Unit: "s"},
	{Name: "discovery.fastcfd.run_w2_s", Unit: "s"},
	{Name: "discovery.fastcfd.parallel_speedup", Unit: "x", Better: "higher"},
	{Name: "discovery.fastcfd.first_rule_s", Unit: "s"},
	{Name: "discovery.fastcfd.rules", Unit: "count"},
	{Name: "discovery.remine_run_s", Unit: "s"},

	{Name: "rules.encode_text_ms", Unit: "ms"},
	{Name: "rules.parse_text_ms", Unit: "ms"},
	{Name: "rules.fingerprint_ms", Unit: "ms"},
	{Name: "rules.lhs_sets", Unit: "count"},

	{Name: "cfddiscover.overhead_s", Unit: "s"},

	{Name: "violation.bulkload_s", Unit: "s"},
	{Name: "violation.heap_bytes_per_tuple", Unit: "B"},
	{Name: "violation.applybatch_insert_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "violation.applybatch_delete_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "violation.insert_us", Unit: "us"},
	{Name: "violation.changes_us", Unit: "us"},
	{Name: "violation.report_patch_ms", Unit: "ms"},
	{Name: "violation.tuple_violations_us", Unit: "us"},
	{Name: "violation.tuples_page_ms", Unit: "ms"},
	{Name: "violation.relation_copy_ms", Unit: "ms"},
	{Name: "violation.rule_stats_us", Unit: "us"},
	{Name: "violation.swap_ms", Unit: "ms"},

	{Name: "store.compact_s", Unit: "s"},
	{Name: "store.snapshot_bytes", Unit: "B"},
	{Name: "store.append_ms", Unit: "ms"},
	{Name: "store.append_fsync_ms", Unit: "ms"},
	{Name: "store.wal_bytes_per_op", Unit: "B"},
	{Name: "store.load_s", Unit: "s"},

	{Name: "cleaning.suspects_ms", Unit: "ms"},
	{Name: "cleaning.detect_s", Unit: "s"},

	{Name: "obs.engine_overhead_share", Unit: "share"},
	{Name: "obs.scrape_ms", Unit: "ms"},
	{Name: "monitor.check_us", Unit: "us"},
	{Name: "cluster.route_ns", Unit: "ns"},
	{Name: "cluster.derive_key_us", Unit: "us"},

	{Name: "cfdserve.boot_s", Unit: "s"},
	{Name: "cfdserve.batch_ms", Unit: "ms"},
	{Name: "cfdserve.batch_http_share", Unit: "share"},
	{Name: "cfdserve.point_insert_ms", Unit: "ms"},
	{Name: "cfdserve.point_http_share", Unit: "share"},
	{Name: "cfdserve.delta_poll_ms", Unit: "ms"},
	{Name: "cfdserve.full_read_ms", Unit: "ms"},
	{Name: "cfdserve.full_read_bytes", Unit: "B"},

	{Name: "self.dataset_s", Unit: "s"},
	{Name: "self.discovery_s", Unit: "s"},
	{Name: "self.rules_s", Unit: "s"},
	{Name: "self.violation_s", Unit: "s"},
	{Name: "self.store_s", Unit: "s"},
	{Name: "self.cleaning_s", Unit: "s"},
	{Name: "trace.overhead_share", Unit: "share"},
	{Name: "trace.spans", Unit: "count"},
}

// replay is the state of one traced in-process replay.
type replay struct {
	e   *env
	s   spec
	in  *inputs
	tr  *tracer
	res *result
	out map[string]metric

	rulesA *rules.Set        // the served set, mined from the clean sample
	eng    *violation.Engine // loaded with in.data under rulesA
	batch  [][]violation.Op  // insert batches cut from the payload
	// Medians of the durable in-process commits, against which the HTTP leg
	// is compared.
	batchFsyncS, insertFsyncS float64
}

func (rp *replay) set(name string, v float64) { rp.out[name] = metric{Value: v} }

// span runs f inside a span and returns its seconds.
func (rp *replay) span(layer, name string, f func()) float64 {
	return rp.tr.do(layer, name, f).Seconds()
}

// medianOf runs f n times, each in its own span, and returns the median
// seconds.
func (rp *replay) medianOf(n int, layer, name string, f func(i int)) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rp.span(layer, name, func() { f(i) })
	}
	return median(xs)
}

// runTraced is -trace 1: one pass over the workload's inputs through the
// public functions of each package, every call wrapped in a span.
func runTraced(e *env, s spec, seed int64) (*result, map[string]metric, error) {
	in, err := generate(s, seed)
	if err != nil {
		return nil, nil, err
	}
	if err := in.write(e.workDir, true, true); err != nil {
		return nil, nil, err
	}
	rp := &replay{e: e, s: s, in: in, tr: newTracer(), res: newResult(s.name), out: map[string]metric{}}
	if rp.res.hash, err = hashInputs([]string{in.mineCSV, in.sampleCSV, in.dataCSV}, nil); err != nil {
		return nil, nil, err
	}
	for _, stage := range []func() error{rp.mining, rp.serving, rp.storage, rp.httpLeg} {
		if err := stage(); err != nil {
			return nil, nil, err
		}
	}
	rp.overhead()

	self := selfTimes(rp.tr.spans)
	for _, layer := range []string{"dataset", "discovery", "rules", "violation", "store", "cleaning"} {
		rp.set("self."+layer+"_s", self[layer].Seconds())
	}
	rp.set("trace.spans", float64(len(rp.tr.spans)))
	tracePath := filepath.Join(e.outDir, s.name+".trace.json")
	if err := rp.tr.write(tracePath, s.name, seed); err != nil {
		return nil, nil, err
	}
	rp.res.note("spans written to %s", tracePath)

	// The result line carries exactly the metrics BENCHMARK.json names.
	for _, def := range perLayer {
		m, ok := rp.out[def.Name]
		if !ok {
			rp.res.fail("per-layer metric %s was not measured", def.Name)
		}
		m.Unit = def.Unit
		rp.out[def.Name] = m
	}
	if len(rp.out) != len(perLayer) {
		rp.res.fail("the replay measured %d metrics, perLayer lists %d", len(rp.out), len(perLayer))
	}
	return rp.res, rp.out, nil
}

// mining replays what cfddiscover does, per algorithm: load the CSV, run the
// discovery engine, encode the cover. For a serving workload the mining
// input is the sample cfdserve mines at start-up, with its parameters.
func (rp *replay) mining() error {
	csv, support, maxLHS := rp.in.mineCSV, rp.s.support, 0
	if !rp.s.mine {
		csv, support, maxLHS = rp.in.sampleCSV, serveSupport, serveMaxLHS
	}
	ctx := context.Background()
	var rel *cfd.Relation
	var err error
	loadS := rp.span("dataset", "LoadCSVFile", func() { rel, err = dataset.LoadCSVFile(csv) })
	if err != nil {
		return err
	}
	engine := func(alg string, workers int, extra ...discovery.Option) *discovery.Engine {
		opts := append([]discovery.Option{discovery.WithSupport(support), discovery.WithMaxLHS(maxLHS), discovery.WithWorkers(workers)}, extra...)
		return discovery.NewEngine(discovery.Algorithm(alg), rel, opts...)
	}
	covers := map[string]*rules.Set{}
	var fastW2 float64
	for _, alg := range miners {
		var w [3]float64
		for workers := 1; workers <= 2; workers++ {
			w[workers] = rp.span("discovery", "Engine.Run", func() { covers[alg], err = engine(alg, workers).Run(ctx) })
			if err != nil {
				return fmt.Errorf("%s: %w", alg, err)
			}
		}
		first := rp.span("discovery", "Engine.Stream.first", func() {
			for _, err = range engine(alg, 2).Stream(ctx) {
				break
			}
		})
		if err != nil {
			return fmt.Errorf("%s stream: %w", alg, err)
		}
		rp.set("discovery."+alg+".run_w1_s", w[1])
		rp.set("discovery."+alg+".run_w2_s", w[2])
		rp.set("discovery."+alg+".parallel_speedup", w[1]/w[2])
		rp.set("discovery."+alg+".first_rule_s", first)
		rp.set("discovery."+alg+".rules", float64(covers[alg].Len()))
		if alg == "fastcfd" {
			fastW2 = w[2]
		}
	}
	rp.set("discovery.ctane.limit10_s", rp.span("discovery", "Engine.Run.limit10", func() {
		_, err = engine("ctane", 2, discovery.WithLimit(10)).Run(ctx)
	}))
	if err != nil {
		return err
	}
	if covers["ctane"].Fingerprint() != covers["fastcfd"].Fingerprint() {
		rp.res.fail("ctane and fastcfd covers differ in the replay")
	}

	// The rule-file codec on the cover cfddiscover would write.
	cover := covers["fastcfd"]
	var text string
	encodeS := rp.span("rules", "Set.Text", func() { text = cover.Text() })
	rp.set("rules.encode_text_ms", 1e3*encodeS)
	var parsed *rules.Set
	rp.set("rules.parse_text_ms", 1e3*rp.span("rules", "Parse", func() { parsed, err = rules.Parse(text) }))
	if err != nil {
		return err
	}
	rp.set("rules.fingerprint_ms", 1e3*rp.span("rules", "Set.Fingerprint", func() { _ = parsed.Fingerprint() }))
	if parsed.Fingerprint() != cover.Fingerprint() {
		rp.res.fail("the cover does not survive a text round trip")
	}

	// The CLI's own cost: its wall time minus the three library calls it makes.
	args := []string{"-input", csv, "-algorithm", "fastcfd", "-support", strconv.Itoa(support), "-maxlhs", strconv.Itoa(maxLHS),
		"-workers", "2", "-o", filepath.Join(rp.e.workDir, "replay.rules")}
	var wall time.Duration
	rp.span("cfddiscover", "exec", func() {
		wall, _, err = runCLI(filepath.Join(rp.e.workDir, "cfddiscover.log"), filepath.Join(rp.e.binDir, "cfddiscover"), args...)
	})
	if err != nil {
		return err
	}
	rp.set("cfddiscover.overhead_s", wall.Seconds()-loadS-fastW2-encodeS)

	if rp.s.mine {
		rp.set("dataset.load_csv_s", loadS)
		rp.set("dataset.load_rows_per_s", float64(rel.Size())/loadS)
	}
	return nil
}

// lhsSets counts the distinct LHS attribute sets of a rule set: the number
// of group indexes a tableau-shaped engine would need.
func lhsSets(set *rules.Set) int {
	seen := map[string]bool{}
	for _, c := range set.CFDs() {
		attrs := append([]string(nil), c.LHS...)
		sort.Strings(attrs)
		seen[strings.Join(attrs, ",")] = true
	}
	return len(seen)
}

// serving replays what cfdserve does with the engine, bare (no WAL): boot
// (mine the sample, load the data), batch and point writes, and each read
// the API serves.
func (rp *replay) serving() error {
	in := rp.in
	var err error
	rp.span("discovery", "Engine.Run.sample", func() { rp.rulesA, err = mineServedRules(in) })
	if err != nil {
		return err
	}
	rp.set("rules.lhs_sets", float64(lhsSets(rp.rulesA)))
	var data *cfd.Relation
	loadS := rp.span("dataset", "LoadCSVFile", func() { data, err = dataset.LoadCSVFile(in.dataCSV) })
	if err != nil {
		return err
	}
	if !rp.s.mine {
		rp.set("dataset.load_csv_s", loadS)
		rp.set("dataset.load_rows_per_s", float64(data.Size())/loadS)
	}

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	if rp.eng, err = violation.New(data.Attributes(), rp.rulesA, violation.Options{}); err != nil {
		return err
	}
	eng := rp.eng
	rp.set("violation.bulkload_s", rp.span("violation", "Engine.BulkLoad", func() { err = eng.BulkLoad(data) }))
	if err != nil {
		return err
	}
	rp.set("violation.heap_bytes_per_tuple", float64(heap()-before)/float64(data.Size()))

	// Batches the size cfdserve's clients send, cut from the payload.
	size := min(256, len(in.payload)/4)
	for at := 0; at+size <= len(in.payload) && len(rp.batch) < 20; at += size {
		ops := make([]violation.Op, size)
		for i := range ops {
			ops[i] = violation.Op{Kind: violation.OpInsert, Values: in.payload[at+i]}
		}
		rp.batch = append(rp.batch, ops)
	}
	// One untimed cycle first, so the bare and the instrumented cycle below
	// both run on warm dictionaries and grown tables.
	rp.tr.on = false
	_, _, err = rp.batchCycle("warm-up")
	rp.tr.on = true
	if err != nil {
		return err
	}
	// Bare and instrumented cycles alternate, so drift (table growth, GC
	// state) falls on both sides alike. Each instrumented cycle feeds a fresh
	// obs registry, detached again afterwards.
	var reg *obs.Registry
	var insertS, deleteS, instrumented []float64
	for i := 0; i < 3; i++ {
		ins, del, err := rp.batchCycle("Engine.ApplyBatch")
		if err != nil {
			return err
		}
		insertS, deleteS = append(insertS, ins...), append(deleteS, del...)
		reg = obs.NewRegistry()
		obs.InstrumentEngine(reg, eng)
		ins, _, err = rp.batchCycle("Engine.ApplyBatch.instrumented")
		if err != nil {
			return err
		}
		instrumented = append(instrumented, ins...)
		eng.SetObserver(nil)
	}
	rp.set("violation.applybatch_insert_ops_per_s", float64(size)/median(insertS))
	rp.set("violation.applybatch_delete_ops_per_s", float64(size)/median(deleteS))
	rp.set("obs.engine_overhead_share", 1-median(insertS)/median(instrumented))
	rp.set("obs.scrape_ms", 1e3*rp.medianOf(20, "obs", "Registry.WriteText", func(int) { err = reg.WriteText(io.Discard) }))
	if err != nil {
		return err
	}

	// Point writes, the delta each leaves behind, and the report patched
	// after fifteen of them (what a full read after every 15th write costs).
	var ids []int
	var changes, patches []float64
	rp.set("violation.insert_us", 1e6*rp.medianOf(150, "violation", "Engine.Insert", func(i int) {
		var id int
		if id, err = eng.Insert(in.payload[i%len(in.payload)]...); err == nil {
			ids = append(ids, id)
		}
	}))
	if err != nil {
		return err
	}
	for i, id := range ids {
		epoch := eng.Epoch()
		if err := eng.Delete(id); err != nil {
			return err
		}
		changes = append(changes, rp.span("violation", "Engine.Changes", func() { _, err = eng.Changes(epoch) }))
		if err != nil {
			return err
		}
		if (i+1)%15 == 0 {
			patches = append(patches, rp.span("violation", "Engine.Report", func() { _ = eng.Report() }))
		}
	}
	rp.set("violation.changes_us", 1e6*median(changes))
	rp.set("violation.report_patch_ms", 1e3*median(patches))

	rng := rand.New(rand.NewSource(in.seed))
	rp.set("violation.tuple_violations_us", 1e6*rp.medianOf(500, "violation", "Engine.TupleViolations", func(int) {
		_, err = eng.TupleViolations(rng.Intn(data.Size()))
	}))
	if err != nil {
		return err
	}
	rp.set("violation.tuples_page_ms", 1e3*rp.medianOf(20, "violation", "Engine.Tuples", func(i int) {
		eng.Tuples(i*1000%data.Size(), 1000)
	}))
	rp.set("violation.rule_stats_us", 1e6*rp.medianOf(200, "violation", "Engine.RuleStats", func(int) { eng.RuleStats() }))

	// What /v1/suspects and a remine pay: a copy of the live relation, then
	// the batch analysis or FastCFD over it, then the swap.
	var live *cfd.Relation
	rp.set("violation.relation_copy_ms", 1e3*rp.medianOf(5, "violation", "Engine.Relation", func(int) { live, _, err = eng.Relation() }))
	if err != nil {
		return err
	}
	rp.set("cleaning.suspects_ms", 1e3*rp.medianOf(3, "cleaning", "Suspects", func(int) { _, err = cleaning.Suspects(live, rp.rulesA) }))
	if err != nil {
		return err
	}
	rp.set("cleaning.detect_s", rp.span("cleaning", "Detect", func() { _, err = cleaning.Detect(live, rp.rulesA) }))
	if err != nil {
		return err
	}
	var mined *rules.Set
	rp.set("discovery.remine_run_s", rp.span("discovery", "Engine.Run.remine", func() {
		mined, err = discovery.NewEngine(discovery.AlgFastCFD, live,
			discovery.WithSupport(serveSupport), discovery.WithMaxLHS(serveMaxLHS)).Run(context.Background())
	}))
	if err != nil {
		return err
	}
	var swaps []float64
	for i := 0; i < 3; i++ {
		if _, err := eng.SwapRules(context.Background(), mined); err != nil {
			return err
		}
		swaps = append(swaps, rp.span("violation", "Engine.SwapRules", func() { _, err = eng.SwapRules(context.Background(), rp.rulesA) }))
		if err != nil {
			return err
		}
	}
	rp.set("violation.swap_ms", 1e3*median(swaps))

	// Layers no end-to-end metric gates yet.
	mon := monitor.New(eng, monitor.Policy{MaxSupportDrift: 0.25, MinConfidence: 0.95, MinSupport: serveSupport}, nil)
	rp.set("monitor.check_us", 1e6*rp.medianOf(200, "discovery/monitor", "Monitor.Check", func(int) { mon.Check() }))
	var key []string
	rp.set("cluster.derive_key_us", 1e6*rp.medianOf(20, "cluster", "DeriveKey", func(int) { key = cluster.DeriveKey(data.Attributes(), rp.rulesA) }))
	part, err := cluster.NewPartitioner(data.Attributes(), key)
	if err != nil {
		return err
	}
	routeS := rp.span("cluster", "Partitioner.Route", func() {
		for _, row := range in.payload {
			part.Route(row, 3)
		}
	})
	rp.set("cluster.route_ns", 1e9*routeS/float64(len(in.payload)))
	return nil
}

// batchCycle applies every insert batch and then deletes the same tuples,
// batch by batch, leaving the engine as it found it. It returns the seconds
// of each insert and each delete batch.
func (rp *replay) batchCycle(name string) (insertS, deleteS []float64, err error) {
	var assigned [][]int
	for _, ops := range rp.batch {
		var ids []int
		insertS = append(insertS, rp.span("violation", name, func() { ids, err = rp.eng.ApplyBatch(ops) }))
		if err != nil {
			return nil, nil, err
		}
		assigned = append(assigned, ids)
	}
	for _, ids := range assigned {
		ops := deleteOps(ids)
		deleteS = append(deleteS, rp.span("violation", name, func() { _, err = rp.eng.ApplyBatch(ops) }))
		if err != nil {
			return nil, nil, err
		}
	}
	return insertS, deleteS, nil
}

// tracedLog is the WAL shim: it sits between the engine and the Store, so
// the store's share of a commit shows as a child span of Engine.ApplyBatch.
type tracedLog struct {
	st *violation.Store
	tr *tracer
}

func (l tracedLog) Append(ops []violation.Op) (err error) {
	l.tr.do("store", "Store.Append", func() { err = l.st.Append(ops) })
	return err
}

func (l tracedLog) AppendRules(set *rules.Set) (err error) {
	l.tr.do("store", "Store.AppendRules", func() { err = l.st.AppendRules(set) })
	return err
}

func (l tracedLog) Seq() uint64 { return l.st.Seq() }

// storage replays the persistence layer: the first snapshot, commits through
// the WAL without and with fsync, and recovery.
func (rp *replay) storage() error {
	var appendS [2][]float64
	for i, sync := range []bool{false, true} {
		dir := filepath.Join(rp.e.workDir, "replay-state-"+strconv.FormatBool(sync))
		st, err := violation.OpenStore(dir, violation.StoreOptions{Sync: sync})
		if err != nil {
			return err
		}
		compactS := rp.span("store", "Store.Compact", func() { err = st.Compact(rp.eng) })
		if err != nil {
			return err
		}
		rp.eng.AttachWAL(tracedLog{st, rp.tr})
		earlier := len(rp.tr.durations("store.Store.Append"))
		batchS, _, err := rp.batchCycle("Engine.ApplyBatch.durable")
		if err != nil {
			return err
		}
		appendS[i] = rp.tr.durations("store.Store.Append")[earlier:]
		if !sync {
			rp.set("store.compact_s", compactS)
			if err := rp.setFileSize("store.snapshot_bytes", filepath.Join(dir, "snapshot.json"), 1); err != nil {
				return err
			}
			ops := 2 * len(rp.batch) * len(rp.batch[0])
			if err := rp.setFileSize("store.wal_bytes_per_op", filepath.Join(dir, "wal.jsonl"), ops); err != nil {
				return err
			}
		} else {
			rp.batchFsyncS = median(batchS)
			var ids []int
			rp.insertFsyncS = rp.medianOf(100, "violation", "Engine.Insert.durable", func(i int) {
				var id int
				if id, err = rp.eng.Insert(rp.in.payload[i%len(rp.in.payload)]...); err == nil {
					ids = append(ids, id)
				}
			})
			for _, id := range ids {
				if err == nil {
					err = rp.eng.Delete(id)
				}
			}
			if err != nil {
				return err
			}
		}
		if err := st.Close(); err != nil {
			return err
		}
		if sync {
			// Recovery as a restarted cfdserve does it: snapshot + WAL tail.
			var restored *violation.Engine
			rp.set("store.load_s", rp.span("store", "OpenStore+Load", func() {
				if st, err = violation.OpenStore(dir, violation.StoreOptions{Sync: true}); err == nil {
					restored, _, err = st.Load(violation.Options{})
				}
			}))
			if err != nil {
				return err
			}
			if restored.Size() != rp.eng.Size() || restored.NextID() != rp.eng.NextID() {
				rp.res.fail("recovered engine has %d tuples, next id %d; want %d, %d",
					restored.Size(), restored.NextID(), rp.eng.Size(), rp.eng.NextID())
			}
			if err := st.Close(); err != nil {
				return err
			}
		}
	}
	rp.set("store.append_ms", 1e3*median(appendS[0]))
	rp.set("store.append_fsync_ms", 1e3*median(appendS[1]))
	return nil
}

func (rp *replay) setFileSize(name, path string, per int) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	rp.set(name, float64(fi.Size())/float64(per))
	return nil
}

// httpLeg sends the replay's batches, point writes and reads to a real
// cfdserve on the same serving input, so the in-process engine + store time
// can be taken out of the HTTP latency: what is left is JSON, mux,
// middleware and the loopback.
func (rp *replay) httpLeg() error {
	srv, err := newServer(rp.e, filepath.Join(rp.e.workDir, "replay-serve-state"))
	if err != nil {
		return err
	}
	defer srv.kill()
	cl := srv.client
	boot, err := srv.start(firstBoot(rp.in)...)
	if err != nil {
		return err
	}
	rp.set("cfdserve.boot_s", boot.Seconds())

	request := func(kind, method, path string, body []byte) (float64, []byte, error) {
		var d time.Duration
		var code int
		var reply []byte
		var err error
		rp.tr.do("cfdserve", kind, func() { d, code, reply, err = cl.timed(method, path, body, "application/json") })
		rp.res.attempted++
		if err == nil && code != 200 {
			err = fmt.Errorf("%s %s: status %d", method, path, code)
		}
		return d.Seconds(), reply, err
	}
	next := rp.in.data.Size()
	var batchS, pointS, pollS, fullS []float64
	var fullBytes int
	for _, ops := range rp.batch {
		d, _, err := request("batch_insert", "POST", "/v1/batch", mustJSON(map[string]any{"ops": ops}))
		if err != nil {
			return err
		}
		batchS = append(batchS, d)
		ids := make([]int, len(ops)) // assigned sequentially, as in the scripts
		for i := range ids {
			ids[i] = next + i
		}
		next += len(ops)
		if _, _, err := request("batch_delete", "POST", "/v1/batch", mustJSON(map[string]any{"ops": deleteOps(ids)})); err != nil {
			return err
		}
	}
	h, err := cl.health()
	if err != nil {
		return err
	}
	for i := 0; i < 100; i++ {
		d, _, err := request("point_insert", "POST", "/v1/tuples", mustJSON(map[string]any{"values": rp.in.payload[i%len(rp.in.payload)]}))
		if err != nil {
			return err
		}
		pointS = append(pointS, d)
		if d, _, err = request("delta_poll", "GET", "/v1/violations?since="+strconv.FormatUint(h.Epoch+uint64(2*i), 10), nil); err != nil {
			return err
		}
		pollS = append(pollS, d)
		if i%10 == 9 {
			d, reply, err := request("full_read", "GET", "/v1/violations", nil)
			if err != nil {
				return err
			}
			fullS, fullBytes = append(fullS, d), len(reply)
		}
		if _, _, err := request("point_delete", "DELETE", "/v1/tuples/"+strconv.Itoa(next+i), nil); err != nil {
			return err
		}
	}
	rp.set("cfdserve.batch_ms", 1e3*median(batchS))
	rp.set("cfdserve.batch_http_share", 1-rp.batchFsyncS/median(batchS))
	rp.set("cfdserve.point_insert_ms", 1e3*median(pointS))
	rp.set("cfdserve.point_http_share", 1-rp.insertFsyncS/median(pointS))
	rp.set("cfdserve.delta_poll_ms", 1e3*median(pollS))
	rp.set("cfdserve.full_read_ms", 1e3*median(fullS))
	rp.set("cfdserve.full_read_bytes", float64(fullBytes))
	return nil
}

// overhead measures what the spans themselves cost: the cheapest traced call
// of the replay, in a loop, with the tracer on and off.
func (rp *replay) overhead() {
	loop := func() float64 {
		start := time.Now()
		for i := 0; i < 20000; i++ {
			rp.tr.do("violation", "Engine.TupleViolations.overhead", func() { _, _ = rp.eng.TupleViolations(i % rp.in.data.Size()) })
		}
		return time.Since(start).Seconds()
	}
	keep := len(rp.tr.spans)
	on := loop()
	rp.tr.spans = rp.tr.spans[:keep] // the probe's own spans are not part of the replay
	rp.tr.on = false
	off := loop()
	rp.tr.on = true
	rp.set("trace.overhead_share", 1-off/on)
}
