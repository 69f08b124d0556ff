package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flaky is a shard stub whose behaviour is switched per test phase.
type flaky struct {
	mu     sync.Mutex
	status int // response status for /v1/health
	hits   atomic.Int64
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.hits.Add(1)
	f.mu.Lock()
	status := f.status
	f.mu.Unlock()
	if status >= 400 {
		w.WriteHeader(status)
		w.Write([]byte(`{"error":{"code":"internal","message":"induced"}}`))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"status":"ok","tuples":1,"rules":1,"next_id":1,"rules_version":"v"}`))
}

func (f *flaky) set(status int) {
	f.mu.Lock()
	f.status = status
	f.mu.Unlock()
}

// obsLog records observer callbacks for assertions.
type obsLog struct {
	mu     sync.Mutex
	health []bool
	swaps  []string
	errs   []string
}

func (o *obsLog) ObserveShardRequest(string, float64, bool) {}
func (o *obsLog) ObserveShardHealth(_ string, healthy bool) {
	o.mu.Lock()
	o.health = append(o.health, healthy)
	o.mu.Unlock()
}
func (o *obsLog) ObserveScatterError(op string) {
	o.mu.Lock()
	o.errs = append(o.errs, op)
	o.mu.Unlock()
}
func (o *obsLog) ObserveSwap(outcome string) {
	o.mu.Lock()
	o.swaps = append(o.swaps, outcome)
	o.mu.Unlock()
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	f := &flaky{status: http.StatusInternalServerError}
	ts := httptest.NewServer(f)
	defer ts.Close()
	log := &obsLog{}
	s := NewShardClient(ts.URL, "0", time.Second, log)
	ctx := context.Background()

	// breakerThreshold consecutive 5xx responses trip the breaker. Rules()
	// is a retrying read, so each call can burn up to two attempts.
	for i := 0; s.healthy(); i++ {
		if _, err := s.Rules(ctx); err == nil {
			t.Fatal("a 500 response must be an error")
		} else if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("5xx must wrap ErrUnavailable, got %v", err)
		}
		if i > breakerThreshold {
			t.Fatal("breaker never opened")
		}
	}

	// Open: requests fail fast without a round trip.
	before := f.hits.Load()
	if _, err := s.Rules(ctx); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("open breaker must fail with ErrUnavailable, got %v", err)
	}
	if f.hits.Load() != before {
		t.Fatal("open breaker must not send requests")
	}

	// The health probe bypasses the breaker — it is how recovery is noticed.
	f.set(http.StatusOK)
	if _, err := s.Health(ctx); err != nil {
		t.Fatalf("health probe through an open breaker: %v", err)
	}
	// The successful probe reset the failure count: the breaker is closed.
	if !s.healthy() {
		t.Fatal("a successful probe must close the breaker")
	}
	if _, err := s.Rules(ctx); err != nil {
		t.Fatalf("closed breaker must serve again: %v", err)
	}

	log.mu.Lock()
	defer log.mu.Unlock()
	want := []bool{false, true}
	if len(log.health) != 2 || log.health[0] != want[0] || log.health[1] != want[1] {
		t.Fatalf("health transitions = %v, want %v", log.health, want)
	}
}

func TestBreakerHalfOpenAfterCooldown(t *testing.T) {
	f := &flaky{status: http.StatusInternalServerError}
	ts := httptest.NewServer(f)
	defer ts.Close()
	s := NewShardClient(ts.URL, "0", time.Second, nil)
	ctx := context.Background()
	for s.healthy() {
		s.Rules(ctx)
	}
	// Expire the cooldown directly rather than sleeping it out.
	s.mu.Lock()
	s.openUntil = time.Now().Add(-time.Millisecond)
	s.mu.Unlock()
	f.set(http.StatusOK)
	before := f.hits.Load()
	if _, err := s.Rules(ctx); err != nil {
		t.Fatalf("half-open trial must go through: %v", err)
	}
	if f.hits.Load() == before {
		t.Fatal("half-open trial never reached the shard")
	}
	if !s.healthy() {
		t.Fatal("a successful trial must close the breaker")
	}
}

// TestBreakerHalfOpenSingleProbe: once the cooldown passes, exactly one
// caller is admitted as the probe; everyone else keeps failing fast until
// the probe resolves, so a scatter cannot fan a full fan-out at a shard
// that is still dead.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	f := &flaky{status: http.StatusInternalServerError}
	ts := httptest.NewServer(f)
	defer ts.Close()
	s := NewShardClient(ts.URL, "0", time.Second, nil)
	ctx := context.Background()
	for s.healthy() {
		s.Rules(ctx)
	}
	// Expire the cooldown: the next allow() is the half-open probe and must
	// re-arm the window so concurrent callers are refused.
	s.mu.Lock()
	s.openUntil = time.Now().Add(-time.Millisecond)
	s.mu.Unlock()
	if !s.allow() {
		t.Fatal("the first caller past the cooldown must be admitted as the probe")
	}
	if s.allow() {
		t.Fatal("half-open must admit a single probe, not every caller")
	}
	before := f.hits.Load()
	if _, err := s.Rules(ctx); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("callers during the probe window must fail fast, got %v", err)
	}
	if f.hits.Load() != before {
		t.Fatal("a refused caller must not reach the shard")
	}
	// The probe's failure re-opens the breaker for a full cooldown; its
	// success (simulated by the recovery path in TestBreakerHalfOpen) closes
	// it for everyone.
}

func TestAPIErrorsDoNotTripBreaker(t *testing.T) {
	f := &flaky{status: http.StatusNotFound}
	ts := httptest.NewServer(f)
	defer ts.Close()
	s := NewShardClient(ts.URL, "0", time.Second, nil)
	ctx := context.Background()
	for i := 0; i < breakerThreshold+2; i++ {
		_, err := s.GetTuple(ctx, 7)
		var api *APIError
		if !errors.As(err, &api) || api.Status != http.StatusNotFound || api.Code != "internal" {
			t.Fatalf("want the shard's 404 APIError, got %v", err)
		}
		if errors.Is(err, ErrUnavailable) {
			t.Fatalf("a definite answer must not be unavailable: %v", err)
		}
	}
	if !s.healthy() {
		t.Fatal("4xx answers must not trip the breaker")
	}
}

func TestDecodeEnvelope(t *testing.T) {
	e := decodeEnvelope("http://x", 409, []byte(`{"error":{"code":"conflict","message":"CAS miss"}}`))
	if e.Code != "conflict" || e.Status != 409 || e.Message != "CAS miss" {
		t.Fatalf("envelope decode = %+v", e)
	}
	e = decodeEnvelope("http://x", 502, []byte("bad gateway"))
	if e.Code != "internal" || e.Message != "bad gateway" {
		t.Fatalf("fallback decode = %+v", e)
	}
}
