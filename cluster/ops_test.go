package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/violation"
)

// stubShard is a shard node that owns one tuple id (none when owns < 0): it
// answers the point read of that id, 404s every other one, and acknowledges
// every batch. It counts the batches that reach it.
type stubShard struct {
	owns    int
	batches atomic.Int64
}

func (s *stubShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/batch":
		s.batches.Add(1)
		w.Write([]byte(`{"ids":[],"applied":1}`))
	case r.Method == http.MethodGet && s.owns >= 0 && r.URL.Path == "/v1/tuples/"+strconv.Itoa(s.owns):
		w.Write([]byte(`{"id":` + strconv.Itoa(s.owns) + `,"values":["x"]}`))
	default:
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":{"code":"not_found","message":"tuple not found"}}`))
	}
}

// TestBatchRefusesKeyChange: an update that changes its id's partition key is
// a coordinator 409 key_change naming the op and the key, whether alone (as
// a PUT sends it) or inside a batch. No shard receives a batch for it: the ops before it
// are flushed and applied, it and the ops after it are not sent. An update
// that keeps the key goes to the owner.
func TestBatchRefusesKeyChange(t *testing.T) {
	const id = 7
	shards := []*stubShard{{owns: -1}, {owns: id}}
	var urls []string
	for _, s := range shards {
		ts := httptest.NewServer(s)
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	c, err := New(Config{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	if c.part, err = NewPartitioner([]string{"A"}, []string{"A"}); err != nil {
		t.Fatal(err)
	}
	batches := func() int64 { return shards[0].batches.Load() + shards[1].batches.Load() }
	refused := func(what string, ops []violation.Op, op int, wantBatches int64) {
		t.Helper()
		_, err := c.Batch(context.Background(), ops)
		var api *APIError
		if !errors.As(err, &api) || api.Status != http.StatusConflict || api.Code != "key_change" ||
			!strings.Contains(err.Error(), fmt.Sprintf("batch op %d:", op)) || !strings.Contains(err.Error(), "[A]") {
			t.Fatalf("%s: err = %v, want a 409 key_change naming op %d and the key [A]", what, err, op)
		}
		if n := batches(); n != wantBatches {
			t.Fatalf("%s: the shards received %d batches, want %d", what, n, wantBatches)
		}
	}

	refused("alone", []violation.Op{{Kind: violation.OpUpdate, ID: id, Values: []string{"y"}}}, 0, 0)
	refused("inside a batch", []violation.Op{
		{Kind: violation.OpInsert, Values: []string{"x"}},
		{Kind: violation.OpUpdate, ID: id, Values: []string{"y"}},
		{Kind: violation.OpInsert, Values: []string{"z"}},
	}, 1, 1)
	if c.NextID() != 1 {
		t.Fatalf("next id = %d: the insert after the refused op consumed an id", c.NextID())
	}

	other, owner := shards[0].batches.Load(), shards[1].batches.Load()
	if _, err := c.Batch(context.Background(), []violation.Op{{Kind: violation.OpUpdate, ID: id, Values: []string{"x"}}}); err != nil {
		t.Fatalf("a key-preserving update: %v", err)
	}
	if a, b := shards[0].batches.Load()-other, shards[1].batches.Load()-owner; a != 0 || b != 1 {
		t.Fatalf("a key-preserving update sent %d batches to the other shard and %d to the owner, want 0 and 1", a, b)
	}
}

// TestInsertRollsBackInShardOrder: Insert sends its per-shard batches in
// ascending shard order, so a multi-row insert whose shard-1 batch fails has
// always landed shard 0's rows first. The insert returns the shard's error,
// wrapping ErrUnavailable; shard 0 is then sent one delete batch for exactly
// the ids it took, and those ids stay burned.
func TestInsertRollsBackInShardOrder(t *testing.T) {
	var (
		mu      sync.Mutex
		batches [][]violation.Op // the batches shard 0 received, in order
	)
	shard0 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		req, err := DecodeBatchRequest(body)
		if err != nil {
			t.Errorf("shard 0: undecodable batch: %v", err)
		}
		mu.Lock()
		batches = append(batches, req.Ops)
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ids":[],"applied":1}`))
	}))
	defer shard0.Close()
	shard1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":{"code":"internal","message":"disk full"}}`))
	}))
	defer shard1.Close()
	c, err := New(Config{Shards: []string{shard0.URL, shard1.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if c.part, err = NewPartitioner([]string{"A"}, []string{"A"}); err != nil {
		t.Fatal(err)
	}
	// Two rows that route to shard 0 around one that routes to shard 1.
	var on [2][]string
	for i := 0; len(on[0]) < 2 || len(on[1]) < 1; i++ {
		v := "v" + strconv.Itoa(i)
		s := c.part.Route([]string{v}, 2)
		on[s] = append(on[s], v)
	}
	rows := [][]string{{on[0][0]}, {on[1][0]}, {on[0][1]}}

	if _, err := c.Insert(context.Background(), rows); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("insert: err = %v, want one wrapping ErrUnavailable", err)
	}
	var kinds []string
	var ids [][]int
	for _, b := range batches {
		var batchIDs []int
		for _, op := range b {
			kinds = append(kinds, string(op.Kind))
			if op.Kind == violation.OpInsert {
				batchIDs = append(batchIDs, *op.At)
			} else {
				batchIDs = append(batchIDs, op.ID)
			}
		}
		ids = append(ids, batchIDs)
	}
	if got, want := fmt.Sprint(kinds, ids), fmt.Sprint([]string{"insert", "insert", "delete", "delete"}, [][]int{{0, 2}, {0, 2}}); got != want {
		t.Fatalf("shard 0 received %s, want %s: its inserts, then one delete batch for exactly their ids", got, want)
	}
	if c.NextID() != len(rows) {
		t.Fatalf("next id = %d after the failed insert, want %d: the ids it took stay burned", c.NextID(), len(rows))
	}
}
