package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/violation"
)

// stubShard is a shard node that owns one tuple id (none when owns < 0): it
// answers the point read of that id, 404s every other one, and acknowledges
// every batch. It counts what reaches it.
type stubShard struct {
	owns              int
	requests, batches atomic.Int64
}

func (s *stubShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
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

// TestBatchDeleteHoldsTheStripe: a delete of an existing id takes the id's
// stripe before its first shard call — the scatter that locates the owner
// included — so while another writer holds the stripe nothing of it reaches
// any shard; once the stripe is released the delete completes on the owner.
func TestBatchDeleteHoldsTheStripe(t *testing.T) {
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
	release := c.lockIDs(id)
	done := make(chan error, 1)
	go func() {
		_, err := c.Batch(context.Background(), []violation.Op{{Kind: violation.OpDelete, ID: id}})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("the delete returned (%v) while its stripe was held", err)
	case <-time.After(100 * time.Millisecond):
	}
	for i, s := range shards {
		if n := s.requests.Load(); n != 0 {
			t.Fatalf("shard %d received %d requests while the stripe was held", i, n)
		}
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("delete after the stripe was released: %v", err)
	}
	if a, b := shards[0].batches.Load(), shards[1].batches.Load(); a != 0 || b != 1 {
		t.Fatalf("batches sent: %d to the other shard, %d to the owner; want 0 and 1", a, b)
	}
}
