package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/cfd"
	"repro/cluster"
	"repro/rules"
	"repro/violation"
)

// historyLog is the store as the engine's commit log, recording every record
// the store acknowledged. The engine calls it under its write lock, so the
// records are in epoch order: record i is the commit that made epoch base+i+1.
type historyLog struct {
	*violation.Store
	mu      sync.Mutex
	records []historyRecord
}

// historyRecord is one acknowledged commit: a batch of ops or a rule swap.
type historyRecord struct {
	ops []violation.Op
	set *rules.Set
}

func (l *historyLog) Append(ops []violation.Op) error {
	return l.note(historyRecord{ops: slices.Clone(ops)}, l.Store.Append(ops))
}

func (l *historyLog) AppendRules(set *rules.Set) error {
	return l.note(historyRecord{set: set}, l.Store.AppendRules(set))
}

func (l *historyLog) note(rec historyRecord, err error) error {
	if err == nil {
		l.mu.Lock()
		l.records = append(l.records, rec)
		l.mu.Unlock()
	}
	return err
}

// oracleSeed is the seed of a randomized history: 1, or CFD_ORACLE_SEED's.
func oracleSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(1)
	if s := os.Getenv("CFD_ORACLE_SEED"); s != "" {
		var err error
		if seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			t.Fatalf("CFD_ORACLE_SEED=%q: %v", s, err)
		}
	}
	t.Logf("seed %d", seed)
	return seed
}

// fetch sends one request and returns the reply's status and body.
func fetch(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// TestHistoryOracle is the history check over HTTP: writers send batches,
// point writes and the odd rule swap to a durable, fsyncing node that compacts
// every few ops — so busy compactions rewrite the log's tail under the writes
// — while readers take full reports and pollers follow ?since= deltas (a 410
// resyncs with a full read). A commit log around the store records every
// acknowledged record in epoch order. Afterwards every full read at epoch E
// must equal an oracle engine built from the initial snapshot plus records
// 1..E, byte for byte; every report a poller's chain of deltas reconstructs
// must equal the oracle at its epoch, and the chain must end at the final
// report; and a fresh OpenStore + Load must serve the final state. The seed
// picks the writers' ops; replay one with
//
//	CFD_ORACLE_SEED=<seed> go test ./cmd/cfdserve -run TestHistoryOracle
func TestHistoryOracle(t *testing.T) {
	seed := oracleSeed(t)
	const writers, fullReaders, pollers, iters = 4, 2, 2, 40

	dir, oracleDir := t.TempDir(), t.TempDir()
	cfg := fixtureConfig(dir)
	cfg.fsync = true
	// A compaction after every second op: on a 2-vCPU machine some 35 of them
	// a run find commits landed since their capture and rewrite the tail.
	cfg.compactEvery = 2
	cfg.log = testLog(io.Discard, "")
	sv, err := buildServing(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(oracleDir, "snapshot.json"), initial, 0o644); err != nil {
		t.Fatal(err)
	}
	log := &historyLog{Store: sv.store}
	sv.eng.AttachWAL(log)
	base := sv.eng.Epoch()
	h := newServer(sv.eng, sv.store, cfg)
	ts := httptest.NewServer(h.handler())
	defer ts.Close()

	ruleFiles := [][]byte{nil, []byte("([CC,AC] -> CT, (_, _ || _))\n([CC,ZIP] -> STR, (_, _ || _))\n")}
	if ruleFiles[0], err = os.ReadFile("testdata/rules.txt"); err != nil {
		t.Fatal(err)
	}

	var (
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		defer errMu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}
	// send sends one write, expects a 200 and returns the ids of its reply.
	send := func(method, path string, body []byte) []int {
		status, reply, err := fetch(method, ts.URL+path, body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s %s: status %d: %s", method, path, status, reply)
		}
		var out struct {
			IDs []int `json:"ids"`
		}
		if err == nil {
			err = json.Unmarshal(reply, &out)
		}
		if err != nil {
			fail(err)
		}
		return out.IDs
	}
	// enc encodes a request body: maps of strings and ints always encode.
	enc := func(v any) []byte {
		data, _ := json.Marshal(v)
		return data
	}

	var writerWG, readerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(rng *rand.Rand) {
			defer writerWG.Done()
			pick := func(vs ...string) string { return vs[rng.Intn(len(vs))] }
			row := func() []string {
				return []string{pick("01", "44"), pick("131", "212", "908"), strconv.Itoa(rng.Intn(1e7)),
					"N", pick("S1", "S2"), pick("EDI", "NYC", "GLA"), pick("Z1", "Z2")}
			}
			var live []int // the ids this writer inserted and has not deleted
			for i := 0; i < iters; i++ {
				switch k := rng.Intn(8); {
				case rng.Intn(12) == 0:
					send("PUT", "/v1/rules", ruleFiles[rng.Intn(2)])
				case k < 3 || len(live) == 0:
					ops := []map[string]any{{"op": "insert", "values": row()}, {"op": "insert", "values": row()}}
					if len(live) > 0 {
						j := rng.Intn(len(live))
						ops = append(ops, map[string]any{"op": "update", "id": live[j], "values": row()},
							map[string]any{"op": "delete", "id": live[j]})
						live = slices.Delete(live, j, j+1)
					}
					live = append(live, send("POST", "/v1/batch", enc(map[string]any{"ops": ops}))...)
				case k < 5:
					live = append(live, send("POST", "/v1/tuples", enc(map[string]any{"values": row()}))...)
				case k < 7:
					send("PUT", fmt.Sprintf("/v1/tuples/%d", live[rng.Intn(len(live))]), enc(map[string]any{"values": row()}))
				default:
					j := rng.Intn(len(live))
					send("DELETE", fmt.Sprintf("/v1/tuples/%d", live[j]), nil)
					live = slices.Delete(live, j, j+1)
				}
			}
		}(rand.New(rand.NewSource(seed*31 + int64(w))))
	}

	// fullRead takes one full report: its epoch and its bytes.
	fullRead := func() (uint64, []byte, bool) {
		status, body, err := fetch("GET", ts.URL+"/v1/violations", nil)
		var doc cluster.ViolationsDoc
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET /v1/violations: status %d", status)
		}
		if err == nil {
			err = json.Unmarshal(body, &doc)
		}
		if err == nil && doc.Epoch == nil {
			err = fmt.Errorf("a full report without an epoch: %s", body)
		}
		if err != nil {
			fail(err)
			return 0, nil, false
		}
		return *doc.Epoch, body, true
	}
	type read struct {
		epoch uint64
		body  []byte
	}
	var (
		readsMu sync.Mutex
		reads   []read
	)
	keep := func(epoch uint64, body []byte) {
		readsMu.Lock()
		reads = append(reads, read{epoch, body})
		readsMu.Unlock()
	}
	stop := make(chan struct{})
	for r := 0; r < fullReaders; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(2 * time.Millisecond):
				}
				if epoch, body, ok := fullRead(); ok {
					keep(epoch, body)
				}
			}
		}()
	}
	// A poller's chain: a full read, then one ?since= delta after another; a
	// 410 starts a new chain from a full read.
	type link struct {
		full  bool
		epoch uint64
		body  []byte
	}
	chains := make([][]link, pollers)
	for p := range chains {
		readerWG.Add(1)
		go func(chain *[]link) {
			defer readerWG.Done()
			resync := func() (uint64, bool) {
				epoch, body, ok := fullRead()
				if ok {
					keep(epoch, body)
					*chain = append(*chain, link{true, epoch, body})
				}
				return epoch, ok
			}
			at, ok := resync()
			for stopped := false; ok && !stopped; {
				select {
				case <-stop:
					stopped = true // one last poll, after every write
				case <-time.After(time.Millisecond):
				}
				status, body, err := fetch("GET", fmt.Sprintf("%s/v1/violations?since=%d", ts.URL, at), nil)
				switch {
				case err != nil:
					fail(err)
					return
				case status == http.StatusGone:
					at, ok = resync()
				case status != http.StatusOK:
					fail(fmt.Errorf("GET ?since=%d: status %d: %s", at, status, body))
					return
				default:
					var doc cluster.ChangesDoc
					if err := json.Unmarshal(body, &doc); err != nil {
						fail(err)
						return
					}
					at = doc.Epoch
					*chain = append(*chain, link{false, doc.Epoch, body})
				}
			}
		}(&chains[p])
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	h.drainBackground()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	head, final, _ := fullRead()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	keep(head, final)
	log.mu.Lock()
	records := log.records
	log.mu.Unlock()
	if head != base+uint64(len(records)) {
		t.Fatalf("head epoch %d, but %d records logged from epoch %d", head, len(records), base)
	}
	t.Logf("%d commits, %d full reads, poller chains of %d and %d links", len(records), len(reads), len(chains[0]), len(chains[1]))

	// Walk the oracle from the initial snapshot through the records, checking
	// at each epoch every read taken at it.
	oracleStore, err := violation.OpenStore(oracleDir, violation.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer oracleStore.Close()
	oracle, _, err := oracleStore.Load(violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Epoch() != base {
		t.Fatalf("the initial snapshot loads at epoch %d, the served log starts at %d", oracle.Epoch(), base)
	}
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].epoch < reads[j].epoch })
	parsed := map[string]cfd.CFD{}
	rule := func(s string) cfd.CFD {
		r, ok := parsed[s]
		if !ok {
			if r, err = cfd.Parse(s); err != nil {
				t.Fatalf("rule %q: %v", s, err)
			}
			parsed[s] = r
		}
		return r
	}
	violations := func(rts []cluster.RuleTuples) []violation.Violation {
		var out []violation.Violation
		for _, rt := range rts {
			out = append(out, violation.Violation{Rule: rule(rt.Rule), Tuples: rt.Tuples})
		}
		return out
	}
	reports := make([]*violation.Report, pollers) // each poller's reconstruction
	next := make([]int, pollers)
	for e := base; ; e++ {
		want, _ := (&server{serving: serving{eng: oracle}}).Violations(context.Background())
		wantBody := want.AppendJSON(nil)
		for len(reads) > 0 && reads[0].epoch == e {
			if !bytes.Equal(reads[0].body, wantBody) {
				t.Fatalf("full read at epoch %d\n got: %s\nwant: %s", e, reads[0].body, wantBody)
			}
			reads = reads[1:]
		}
		for p, chain := range chains {
			for ; next[p] < len(chain) && chain[next[p]].epoch == e; next[p]++ {
				l := chain[next[p]]
				if l.full {
					var doc cluster.ViolationsDoc
					if err := json.Unmarshal(l.body, &doc); err != nil {
						t.Fatal(err)
					}
					reports[p] = &violation.Report{Epoch: *doc.Epoch, Violations: violations(doc.Violations), DirtyTuples: doc.Dirty, RulesChecked: doc.RulesChecked}
					continue
				}
				var doc cluster.ChangesDoc
				if err := json.Unmarshal(l.body, &doc); err != nil {
					t.Fatal(err)
				}
				d := &violation.Delta{Epoch: doc.Delta.Epoch, Added: violations(doc.Delta.Added), Removed: violations(doc.Delta.Removed),
					DirtyAdded: doc.Delta.DirtyAdded, DirtyRemoved: doc.Delta.DirtyRemoved}
				if doc.Delta.Rules != nil {
					d.Rules = make([]cfd.CFD, 0, len(doc.Delta.Rules))
					for _, s := range doc.Delta.Rules {
						d.Rules = append(d.Rules, rule(s))
					}
				}
				reports[p] = d.Apply(reports[p], oracle.Rules())
				if got := reports[p]; !sameReport(got, want) {
					t.Fatalf("poller %d's chain at epoch %d\n got: %+v\nwant: %s", p, e, got, wantBody)
				}
			}
		}
		if e == head {
			break
		}
		var err error
		if rec := records[e-base]; rec.set != nil {
			_, err = oracle.SwapRules(context.Background(), rec.set)
		} else {
			_, err = oracle.ApplyBatch(rec.ops)
		}
		if err != nil {
			t.Fatalf("oracle: record %d: %v", e-base+1, err)
		}
	}
	if len(reads) > 0 {
		t.Fatalf("a full read at epoch %d, past the log's head %d", reads[0].epoch, head)
	}
	for p, chain := range chains {
		if next[p] != len(chain) || reports[p] == nil || reports[p].Epoch != head {
			t.Fatalf("poller %d's chain stops short of the final report at epoch %d", p, head)
		}
	}

	// The crash path: the log as the run left it, no final compaction.
	if err := sv.store.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := violation.OpenStore(dir, violation.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	loaded, _, err := st.Load(violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := (&server{serving: serving{eng: loaded}}).Violations(context.Background())
	if body := got.AppendJSON(nil); !bytes.Equal(body, final) {
		t.Fatalf("OpenStore + Load\n got: %s\nwant: %s", body, final)
	}
	gotTuples, _, _ := loaded.Tuples(0, 0)
	wantTuples, _, _ := sv.eng.Tuples(0, 0)
	if !reflect.DeepEqual(gotTuples, wantTuples) || loaded.RulesVersion() != sv.eng.RulesVersion() {
		t.Fatal("OpenStore + Load: tuples or rules differ from the served state")
	}
}

// sameReport compares a reconstructed report with a served document, an empty
// list and a missing one alike.
func sameReport(rep *violation.Report, doc cluster.ViolationsDoc) bool {
	if doc.Epoch == nil || rep.Epoch != *doc.Epoch || rep.RulesChecked != doc.RulesChecked ||
		!slices.Equal(rep.DirtyTuples, doc.Dirty) || len(rep.Violations) != len(doc.Violations) {
		return false
	}
	for i, v := range rep.Violations {
		if v.Rule.String() != doc.Violations[i].Rule || !slices.Equal(v.Tuples, doc.Violations[i].Tuples) {
			return false
		}
	}
	return true
}
