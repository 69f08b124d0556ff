package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// getRaw fetches a URL and returns the raw response body, for byte-identical
// comparisons across restarts.
func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func fixtureConfig(state string) config {
	return config{
		rulesPath:    "testdata/rules.txt",
		dataPath:     "testdata/cust.csv",
		statePath:    state,
		compactEvery: 4096,
	}
}

// mutate drives a representative op mix through the HTTP API: a rows insert,
// a mixed atomic batch, a single-tuple update and a delete.
func mutate(t *testing.T, base string) {
	t.Helper()
	do(t, "POST", base+"/v1/tuples", map[string]any{"rows": [][]string{
		{"01", "212", "9999999", "Ann", "5th Ave", "NYC", "01202"},
		{"86", "10", "8888888", "Wei", "Main Rd.", "BJ", "100000"},
	}}, http.StatusOK)
	do(t, "POST", base+"/v1/batch", map[string]any{"ops": []map[string]any{
		{"op": "insert", "values": []string{"44", "131", "7777777", "Ada", "High St.", "GLA", "EH4 1DT"}},
		{"op": "update", "id": 10, "values": []string{"44", "131", "7777777", "Ada", "High St.", "EDI", "EH4 1DT"}},
		{"op": "delete", "id": 9},
	}}, http.StatusOK)
	do(t, "PUT", base+"/v1/tuples/7", map[string]any{
		"values": []string{"01", "131", "2222222", "Sean", "3rd Str.", "EDI", "01202"},
	}, http.StatusOK)
	do(t, "DELETE", base+"/v1/tuples/2", nil, http.StatusOK)
}

// TestBatchEndpoint exercises POST /v1/batch: a mixed atomic batch,
// intra-batch id references, and all-or-nothing on a bad op.
func TestBatchEndpoint(t *testing.T) {
	ts := newTestServer(t)

	out := do(t, "POST", ts.URL+"/v1/batch", map[string]any{"ops": []map[string]any{
		{"op": "insert", "values": []string{"86", "10", "8888888", "Wei", "Main Rd.", "BJ", "100000"}},
		{"op": "update", "id": 8, "values": []string{"86", "10", "8888888", "Wei", "Main Rd.", "SH", "100000"}},
		{"op": "delete", "id": 0},
	}}, http.StatusOK)
	if got := ints(t, out["ids"]); !reflect.DeepEqual(got, []int{8}) {
		t.Fatalf("batch ids = %v, want [8]", got)
	}
	if out["applied"].(float64) != 3 || out["tuples"].(float64) != 8 {
		t.Fatalf("batch response = %v", out)
	}
	row := do(t, "GET", ts.URL+"/v1/tuples/8", nil, http.StatusOK)
	if got := row["values"].([]any); got[5] != "SH" {
		t.Fatalf("intra-batch update lost: %v", got)
	}
	// A batch that inserts nothing still answers an ids array, not null.
	out = do(t, "POST", ts.URL+"/v1/batch", map[string]any{"ops": []map[string]any{{"op": "delete", "id": 1}}}, http.StatusOK)
	if got := ints(t, out["ids"]); len(got) != 0 {
		t.Fatalf("delete-only batch ids = %v, want []", got)
	}

	// A bad op anywhere voids the whole batch.
	before := getRaw(t, ts.URL+"/v1/violations")
	do(t, "POST", ts.URL+"/v1/batch", map[string]any{"ops": []map[string]any{
		{"op": "insert", "values": []string{"01", "212", "9999999", "Ann", "5th Ave", "NYC", "01202"}},
		{"op": "delete", "id": 4242},
	}}, http.StatusNotFound)
	do(t, "POST", ts.URL+"/v1/batch", map[string]any{"ops": []map[string]any{
		{"op": "frobnicate"},
	}}, http.StatusUnprocessableEntity)
	do(t, "POST", ts.URL+"/v1/batch", map[string]any{"ops": []map[string]any{}}, http.StatusBadRequest)
	after := getRaw(t, ts.URL+"/v1/violations")
	if !bytes.Equal(before, after) {
		t.Fatal("failed batches must not change the violation state")
	}
	// Atomic rows insert: one bad row, nothing lands.
	tuples := do(t, "GET", ts.URL+"/v1/health", nil, http.StatusOK)["tuples"]
	do(t, "POST", ts.URL+"/v1/tuples", map[string]any{"rows": [][]string{
		{"01", "212", "9999999", "Ann", "5th Ave", "NYC", "01202"},
		{"too", "short"},
	}}, http.StatusUnprocessableEntity)
	if got := do(t, "GET", ts.URL+"/v1/health", nil, http.StatusOK)["tuples"]; got != tuples {
		t.Fatalf("tuples %v after a failed rows insert, want %v", got, tuples)
	}
}

// TestStateRestart is the durability acceptance check: a server started with
// -state, killed without a final compaction (the crash path, WAL replay) or
// with one (the graceful path), serves a byte-identical /violations report
// after restart — tuple ids included — and keeps assigning ids where the
// original would. A ?since= poller crosses the restart too: the replayed WAL
// rebuilds the delta history, so after a crash its old epoch still answers a
// delta; a compaction folds that history away, and the epoch is refused with
// 410 "compacted" until the poller resyncs from a full read.
func TestStateRestart(t *testing.T) {
	for _, graceful := range []bool{false, true} {
		t.Run(map[bool]string{false: "crash-replay", true: "graceful-compacted"}[graceful], func(t *testing.T) {
			dir := t.TempDir()
			sv, err := buildServing(context.Background(), fixtureConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(newServer(sv.eng, sv.store, config{compactEvery: 4096}).handler())
			polled := do(t, "GET", ts.URL+"/v1/violations", nil, http.StatusOK)["epoch"].(float64)
			mutate(t, ts.URL)
			want := getRaw(t, ts.URL+"/v1/violations")
			wantRules := getRaw(t, ts.URL+"/v1/rules")
			ts.Close()
			if graceful {
				if err := sv.close(); err != nil {
					t.Fatal(err)
				}
				// A graceful shutdown folds the WAL into the snapshot.
				if data, err := os.ReadFile(filepath.Join(dir, "wal.jsonl")); err != nil || len(data) != 0 {
					t.Fatalf("wal after graceful close: %d bytes, err=%v", len(data), err)
				}
			} else {
				// Kill: the WAL survives, no final snapshot is written.
				if data, err := os.ReadFile(filepath.Join(dir, "wal.jsonl")); err != nil || len(data) == 0 {
					t.Fatalf("wal before crash: %d bytes, err=%v", len(data), err)
				}
				if err := sv.store.Close(); err != nil {
					t.Fatal(err)
				}
			}

			// Restart from the state directory alone: no -rules, no -data.
			sv2, err := buildServing(context.Background(), config{statePath: dir, compactEvery: 4096})
			if err != nil {
				t.Fatal(err)
			}
			defer sv2.close()
			ts2 := httptest.NewServer(newServer(sv2.eng, sv2.store, config{compactEvery: 4096}).handler())
			defer ts2.Close()
			if got := getRaw(t, ts2.URL+"/v1/violations"); !bytes.Equal(got, want) {
				t.Fatalf("restarted /violations differs:\n%s\nvs\n%s", got, want)
			}
			if got := getRaw(t, ts2.URL+"/v1/rules"); !bytes.Equal(got, wantRules) {
				t.Fatalf("restarted /rules differs:\n%s\nvs\n%s", got, wantRules)
			}
			since := fmt.Sprintf("%s/v1/violations?since=%.0f", ts2.URL, polled)
			if graceful {
				gone := do(t, "GET", since, nil, http.StatusGone)
				if code := gone["error"].(map[string]any)["code"]; code != "compacted" {
					t.Fatalf("stale ?since= after a compaction: code %v, want compacted", code)
				}
				head := do(t, "GET", ts2.URL+"/v1/violations", nil, http.StatusOK)["epoch"].(float64)
				resync := do(t, "GET", fmt.Sprintf("%s/v1/violations?since=%.0f", ts2.URL, head), nil, http.StatusOK)
				if added := resync["delta"].(map[string]any)["added"].([]any); len(added) != 0 {
					t.Fatalf("resynced poll = %v, want an empty delta", resync)
				}
			} else if delta := do(t, "GET", since, nil, http.StatusOK); delta["epoch"].(float64) <= polled {
				t.Fatalf("replayed delta = %v, want the epochs after %v", delta, polled)
			}
			ins := do(t, "POST", ts2.URL+"/v1/tuples", map[string]any{
				"values": []string{"01", "908", "1111111", "Zoe", "Tree Ave.", "MH", "07974"},
			}, http.StatusOK)
			if got := ints(t, ins["ids"]); !reflect.DeepEqual(got, []int{11}) {
				t.Fatalf("id sequence after restart = %v, want [11]", got)
			}
		})
	}
}

// TestStateBackgroundCompaction: a tiny -compact-every keeps the WAL backlog
// bounded while the server stays correct across a restart.
func TestStateBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := fixtureConfig(dir)
	cfg.compactEvery = 2
	sv, err := buildServing(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(sv.eng, sv.store, cfg)
	ts := httptest.NewServer(h.handler())
	for i := 0; i < 20; i++ {
		row := []string{"01", "212", fmt.Sprintf("%07d", i), "Ann", "5th Ave", "NYC", "01202"}
		out := do(t, "POST", ts.URL+"/v1/tuples", map[string]any{"values": row}, http.StatusOK)
		do(t, "DELETE", fmt.Sprintf("%s/v1/tuples/%d", ts.URL, ints(t, out["ids"])[0]), nil, http.StatusOK)
	}
	// Traffic outruns the compactor — ops logged while a compaction runs wait
	// for the next one — but once it is quiet, the next compaction runs alone
	// and folds the whole backlog.
	for i := 0; i < 2; i++ {
		h.drainBackground()
		if sv.store.Pending() == 0 {
			break
		}
		do(t, "POST", ts.URL+"/v1/tuples", map[string]any{"values": []string{"01", "212", "5555555", "Ann", "5th Ave", "NYC", "01202"}}, http.StatusOK)
	}
	h.drainBackground()
	if n := sv.store.Pending(); n != 0 {
		t.Fatalf("%d WAL ops pending on a quiet server, want 0", n)
	}
	want := getRaw(t, ts.URL+"/v1/violations")
	ts.Close()
	if err := sv.store.Close(); err != nil { // crash path
		t.Fatal(err)
	}
	sv2, err := buildServing(context.Background(), config{statePath: dir, compactEvery: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer sv2.close()
	ts2 := httptest.NewServer(newServer(sv2.eng, sv2.store, config{compactEvery: 4096}).handler())
	defer ts2.Close()
	if got := getRaw(t, ts2.URL+"/v1/violations"); !bytes.Equal(got, want) {
		t.Fatal("state diverged across background compactions")
	}
}

// TestConcurrentHandlers hammers one durable server with parallel readers and
// writers; under -race this is the serving layer's thread-safety check. Every
// writer cleans up after itself, so the final violation report must equal the
// initial one.
func TestConcurrentHandlers(t *testing.T) {
	dir := t.TempDir()
	cfg := fixtureConfig(dir)
	cfg.compactEvery = 16 // force background compactions into the mix
	sv, err := buildServing(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.close()
	h := newServer(sv.eng, sv.store, cfg)
	defer h.drainBackground()
	ts := httptest.NewServer(h.handler())
	defer ts.Close()

	initial := violationsSansEpoch(t, getRaw(t, ts.URL+"/v1/violations"))

	const writers, readers, iters = 4, 4, 25
	var writerWG, readerWG sync.WaitGroup
	errs := make(chan string, writers+readers)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < iters; i++ {
				row := []string{"01", "212", fmt.Sprintf("%d-%d", w, i), "Ann", "5th Ave", "NYC", "01202"}
				resp, err := http.Post(ts.URL+"/v1/tuples", "application/json",
					bytes.NewBufferString(fmt.Sprintf(`{"values":["%s","%s","%s","%s","%s","%s","%s"]}`,
						row[0], row[1], row[2], row[3], row[4], row[5], row[6])))
				if err != nil {
					errs <- err.Error()
					return
				}
				var out struct {
					IDs []int `json:"ids"`
				}
				if err := jsonDecode(resp, &out); err != nil || len(out.IDs) != 1 {
					errs <- fmt.Sprintf("insert: ids=%v err=%v", out.IDs, err)
					return
				}
				id := out.IDs[0]
				// Update it via /batch, then delete it.
				b, err := http.Post(ts.URL+"/v1/batch", "application/json",
					bytes.NewBufferString(fmt.Sprintf(
						`{"ops":[{"op":"update","id":%d,"values":["86","10","x","Wei","Main Rd.","BJ","100000"]},{"op":"delete","id":%d}]}`, id, id)))
				if err != nil {
					errs <- err.Error()
					return
				}
				if b.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("batch status %d", b.StatusCode)
					b.Body.Close()
					return
				}
				io.Copy(io.Discard, b.Body) //nolint:errcheck
				b.Body.Close()
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/v1/violations", "/v1/health", "/v1/rules", "/v1/tuples/0", "/v1/tuples/0/violations"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						errs <- err.Error()
						return
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}
		}()
	}
	// Readers overlap the whole write phase, then stop.
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if got := violationsSansEpoch(t, getRaw(t, ts.URL+"/v1/violations")); !reflect.DeepEqual(got, initial) {
		t.Fatal("violation state diverged after self-cleaning writers")
	}
}

// violationsSansEpoch decodes a /violations body and drops the epoch, which
// counts mutations and so legitimately moves under self-cleaning writers.
func violationsSansEpoch(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	delete(out, "epoch")
	return out
}

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestStoreFailedServesReadsRefusesWrites: once the store has failed — here
// its WAL is closed behind the server's back — the node keeps answering
// reads from memory, refuses every write with a 5xx, and says so where an
// operator and a load balancer look: /v1/health turns 503 with the reason,
// cfd_store_failed turns 1.
func TestStoreFailedServesReadsRefusesWrites(t *testing.T) {
	sv, err := buildServing(context.Background(), fixtureConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(sv.eng, sv.store, config{compactEvery: 4096, log: testLog(io.Discard, "")})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	row := map[string]any{"values": []string{"01", "212", "5555555", "Ann", "5th Ave", "NYC", "01202"}}
	do(t, "POST", ts.URL+"/v1/tuples", row, http.StatusOK)
	if health := do(t, "GET", ts.URL+"/v1/health", nil, http.StatusOK); health["status"] != "ok" || health["store_failed"] != nil {
		t.Fatalf("healthy node: %v", health)
	}
	if scrape := metricsBody(t, ts); !strings.Contains(scrape, "cfd_store_failed 0") {
		t.Errorf("scrape of a healthy node:\n%s", grepLines(scrape, "cfd_store_failed"))
	}
	want := getRaw(t, ts.URL+"/v1/violations")

	if err := sv.store.Close(); err != nil {
		t.Fatal(err)
	}
	do(t, "POST", ts.URL+"/v1/tuples", row, http.StatusInternalServerError)
	do(t, "DELETE", ts.URL+"/v1/tuples/0", nil, http.StatusInternalServerError)
	health := do(t, "GET", ts.URL+"/v1/health", nil, http.StatusServiceUnavailable)
	if reason, _ := health["store_failed"].(string); health["status"] != "failed" || !strings.Contains(reason, "file already closed") {
		t.Fatalf("failed node: status %v, store_failed %v", health["status"], health["store_failed"])
	}
	if got := getRaw(t, ts.URL+"/v1/violations"); !bytes.Equal(got, want) {
		t.Fatalf("reads of a failed node changed:\n%s\nvs\n%s", got, want)
	}
	do(t, "GET", ts.URL+"/v1/tuples/0", nil, http.StatusOK)
	if scrape := metricsBody(t, ts); !strings.Contains(scrape, "cfd_store_failed 1") {
		t.Errorf("scrape of a failed node:\n%s", grepLines(scrape, "cfd_store_failed"))
	}
}
