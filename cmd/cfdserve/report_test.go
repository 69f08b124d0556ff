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
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/cluster"
)

// TestFullReadsMatchThePlainEncoder is the differential test of a node's full
// read, which re-encodes only what changed since the previous one. A seeded
// history of inserts, updates and deletes of ids anywhere in the lists, batch
// deletes of the newest ids and rule swaps runs against a node, with paged
// reads, ?since= polls and full reads between the writes. Every full read must
// be byte for byte ViolationsDoc.AppendJSON of the report at its epoch — also
// with readers taking full reads concurrently, some of which find the
// encoding in use and take the plain encoder. Replay a seed with
//
//	CFD_ORACLE_SEED=<seed> go test ./cmd/cfdserve -run TestFullReadsMatchThePlainEncoder
func TestFullReadsMatchThePlainEncoder(t *testing.T) {
	seed := oracleSeed(t)
	for _, readers := range []int{0, 3} {
		t.Run(fmt.Sprintf("readers=%d", readers), func(t *testing.T) { fullReadHistory(t, seed, readers) })
	}
}

func fullReadHistory(t *testing.T, seed int64, readers int) {
	const steps = 200
	eng, err := loadEngine(context.Background(), config{rulesPath: "testdata/rules.txt", dataPath: "testdata/cust.csv"})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(eng, nil, config{log: testLog(io.Discard, "")})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	ruleFiles := [][]byte{nil, []byte("([CC,AC] -> CT, (_, _ || _))\n([CC,ZIP] -> STR, (_, _ || _))\n([AC] -> CT, (131 || EDI))\n")}
	if ruleFiles[0], err = os.ReadFile("testdata/rules.txt"); err != nil {
		t.Fatal(err)
	}

	// want holds the plain encoding of the report at every epoch: the writer
	// is the only one to commit, so the report after its commit is the one at
	// the epoch the commit made.
	var mu sync.Mutex
	want := map[uint64][]byte{}
	type read struct {
		epoch uint64
		body  []byte
	}
	var reads []read
	note := func() {
		doc, _ := s.Violations(context.Background())
		mu.Lock()
		want[*doc.Epoch] = doc.AppendJSON(nil)
		mu.Unlock()
	}
	// get answers a GET's body, or "" after reporting a failure.
	get := func(path string) []byte {
		status, body, err := fetch("GET", ts.URL+path, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return nil
		}
		return body
	}
	fullRead := func() {
		body := get("/v1/violations")
		var doc cluster.ViolationsDoc
		if err := json.Unmarshal(body, &doc); err != nil || doc.Epoch == nil {
			t.Errorf("a full read without an epoch (%v): %s", err, body)
			return
		}
		mu.Lock()
		reads = append(reads, read{*doc.Epoch, body})
		mu.Unlock()
	}
	send := func(method, path string, body any) []int {
		data, _ := json.Marshal(body)
		status, reply, err := fetch(method, ts.URL+path, data)
		var out struct {
			IDs []int `json:"ids"`
		}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, reply)
		}
		if err == nil {
			err = json.Unmarshal(reply, &out)
		}
		if err != nil {
			t.Errorf("%s %s: %v", method, path, err)
		}
		return out.IDs
	}

	note()
	done := make(chan struct{})
	var wg sync.WaitGroup
	stopReaders := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stopReaders()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					fullRead()
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(seed))
	pick := func(vs ...string) string { return vs[rng.Intn(len(vs))] }
	row := func() []string {
		return []string{pick("01", "44"), pick("131", "212", "908"), strconv.Itoa(rng.Intn(1e7)),
			"N", pick("S1", "S2", "S3"), pick("EDI", "NYC", "MH"), pick("Z1", "Z2")}
	}
	live := []int{0, 1, 2, 3, 4, 5, 6, 7}
	swapped := 0
	for step := 0; step < steps; step++ {
		switch k := rng.Intn(10); {
		case k < 4 || len(live) < 4:
			rows := make([][]string, 1+rng.Intn(3))
			for i := range rows {
				rows[i] = row()
			}
			live = append(live, send("POST", "/v1/tuples", map[string]any{"rows": rows})...)
		case k < 6:
			send("PUT", fmt.Sprintf("/v1/tuples/%d", live[rng.Intn(len(live))]), map[string]any{"values": row()})
		case k < 8:
			i := rng.Intn(len(live))
			send("DELETE", fmt.Sprintf("/v1/tuples/%d", live[i]), nil)
			live = slices.Delete(live, i, i+1)
		case k < 9:
			// The newest ids go, as the end of every list does.
			n := 1 + rng.Intn(3)
			var ops []map[string]any
			for _, id := range live[len(live)-n:] {
				ops = append(ops, map[string]any{"op": "delete", "id": id})
			}
			send("POST", "/v1/batch", map[string]any{"ops": ops})
			live = live[:len(live)-n]
		default:
			swapped++
			status, reply, err := fetch("PUT", ts.URL+"/v1/rules", ruleFiles[swapped%2])
			if err != nil || status != http.StatusOK {
				t.Fatalf("PUT /v1/rules: %d %s %v", status, reply, err)
			}
		}
		note()
		switch rng.Intn(4) {
		case 0:
			get(fmt.Sprintf("/v1/violations?limit=1&cursor=%d", rng.Intn(3)))
		case 1:
			get(fmt.Sprintf("/v1/violations?since=%d", s.eng.Epoch()-1))
		}
		if rng.Intn(3) > 0 {
			fullRead()
		}
	}
	stopReaders()

	for _, r := range reads {
		if w, ok := want[r.epoch]; !ok || !bytes.Equal(r.body, w) {
			t.Fatalf("the full read at epoch %d departs from the plain encoder\n got: %s\nwant: %s", r.epoch, r.body, w)
		}
	}
	if reused := s.obs.reportBytes.With("reused").Value(); reused == 0 || swapped == 0 {
		t.Errorf("%d full reads, %d rule swaps: %d bytes reused", len(reads), swapped, reused)
	}
	t.Logf("%d full reads, %d rule swaps, %d bytes reused, %d encoded", len(reads), swapped,
		s.obs.reportBytes.With("reused").Value(), s.obs.reportBytes.With("encoded").Value())
}
