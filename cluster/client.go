package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/obs"
	"repro/violation"
)

// ErrUnavailable is wrapped by every error that means a shard could not
// answer at all — transport failure, timeout, a 5xx response, or a circuit
// breaker still open from earlier failures. Correctness-bearing scatter
// reads propagate it instead of returning partial results; the coordinator
// maps it to 503 with the "unavailable" error code.
var ErrUnavailable = errors.New("cluster: shard unavailable")

// maxResponseBytes bounds the body of one shard reply the client reads.
const maxResponseBytes = 64 << 20

// APIError is a shard's own error envelope, passed through so the
// coordinator can forward the shard's status and stable error code (a 404
// from the owning shard is the cluster's 404).
type APIError struct {
	Shard   string // shard base URL
	Status  int
	Code    string
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("cluster: shard %s: %s (%d %s)", e.Shard, e.Message, e.Status, e.Code)
}

// Observer receives the coordinator's per-shard telemetry. Implementations
// must be safe for concurrent use; cmd/cfdserve adapts it onto the obs
// registry. A nil Observer is legal everywhere one is accepted.
type Observer interface {
	// ObserveShardRequest is called after every shard round trip (retries
	// count individually) with the shard's index label, the elapsed time,
	// and whether the shard failed to answer (transport/5xx; an API error
	// like 404 is an answer).
	ObserveShardRequest(shard string, seconds float64, failed bool)
	// ObserveShardHealth is called when a shard's breaker changes state.
	ObserveShardHealth(shard string, healthy bool)
	// ObserveScatterError is called when a whole scatter-gather fails, with
	// the operation name ("violations", "tuples", "swap", ...).
	ObserveScatterError(op string)
	// ObserveSwap is called once per coordinated rule swap with its outcome:
	// "committed", "rejected", "aborted" (rolled back cleanly) or "mixed"
	// (rollback failed; shards disagree until repaired).
	ObserveSwap(outcome string)
}

// breakerThreshold consecutive failures open a shard's circuit breaker;
// while open, requests fail fast with ErrUnavailable instead of waiting out
// a timeout per scatter. After breakerCooldown one trial request is let
// through (half-open); its success closes the breaker.
const (
	breakerThreshold = 3
	breakerCooldown  = 2 * time.Second
)

// ShardClient is the coordinator's HTTP client for one shard node: JSON
// round trips with a per-request timeout, one retry for idempotent reads
// that fail in transport, and a consecutive-failure circuit breaker.
type ShardClient struct {
	base  string // base URL, no trailing slash
	label string // shard index as a metrics label ("0", "1", ...)
	hc    *http.Client
	obs   Observer

	mu        sync.Mutex
	fails     int
	openUntil time.Time
}

// NewShardClient builds a client for the shard at base (e.g.
// "http://10.0.0.7:8081"). timeout bounds every round trip; label is the
// shard's index used in telemetry.
func NewShardClient(base string, label string, timeout time.Duration, obs Observer) *ShardClient {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &ShardClient{
		base:  strings.TrimRight(base, "/"),
		label: label,
		hc:    &http.Client{Timeout: timeout},
		obs:   obs,
	}
}

// URL returns the shard's base URL.
func (s *ShardClient) URL() string { return s.base }

// healthy reports the breaker state: false while the shard is considered
// down (consecutive failures at or above the threshold).
func (s *ShardClient) healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fails < breakerThreshold
}

// allow reports whether a request may go out: true when the breaker is
// closed, or open but past its cooldown (the half-open trial). Admitting a
// trial re-arms the cooldown, so half-open passes exactly one probe per
// window: concurrent callers keep failing fast until the probe resolves (a
// success closes the breaker) instead of fanning a full scatter's worth of
// requests at a still-dead shard, each waiting out the full timeout. A
// probe that never reports back (not a case do() can produce) merely costs
// one more cooldown before the next trial.
func (s *ShardClient) allow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fails < breakerThreshold {
		return true
	}
	now := time.Now()
	if now.Before(s.openUntil) {
		return false
	}
	s.openUntil = now.Add(breakerCooldown)
	return true
}

// observe records one round trip begun at start: its outcome in the breaker,
// a health change and the request itself in telemetry when an observer is
// attached. Every attempt do makes ends here, once.
func (s *ShardClient) observe(start time.Time, failed bool) {
	s.mu.Lock()
	wasHealthy := s.fails < breakerThreshold
	if failed {
		s.fails++
		if s.fails >= breakerThreshold {
			s.openUntil = time.Now().Add(breakerCooldown)
		}
	} else {
		s.fails = 0
	}
	nowHealthy := s.fails < breakerThreshold
	s.mu.Unlock()
	if s.obs == nil {
		return
	}
	if wasHealthy != nowHealthy {
		s.obs.ObserveShardHealth(s.label, nowHealthy)
	}
	s.obs.ObserveShardRequest(s.label, time.Since(start).Seconds(), failed)
}

// do performs one JSON round trip. A non-2xx response is decoded into an
// *APIError; transport errors and 5xx responses trip the breaker and wrap
// ErrUnavailable. When retry is true (idempotent reads) one transport
// failure is retried immediately. bypassBreaker sends even while the
// breaker is open — the health probe uses it, so a downed shard keeps
// being probed.
func (s *ShardClient) do(ctx context.Context, method, path string, query url.Values, body []byte, header http.Header, out any, retry, bypassBreaker bool) error {
	if !bypassBreaker && !s.allow() {
		return fmt.Errorf("%w: %s: circuit open after %d consecutive failures", ErrUnavailable, s.base, breakerThreshold)
	}
	attempts := 1
	if retry {
		attempts = 2
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		u := s.base + path
		if len(query) > 0 {
			u += "?" + query.Encode()
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ErrUnavailable, s.base, err)
		}
		for k, vs := range header {
			req.Header[k] = vs
		}
		// One user request is one id on every node it touches: the shard's
		// middleware adopts it for its access log and its error envelope.
		if id := obs.RequestID(ctx); id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		start := time.Now()
		resp, err := s.hc.Do(req)
		if err != nil {
			s.observe(start, true)
			lastErr = fmt.Errorf("%w: %s: %v", ErrUnavailable, s.base, err)
			if ctx.Err() != nil {
				return lastErr
			}
			continue
		}
		// One byte past the limit tells a reply that is too long from one
		// that fills the limit exactly.
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
		resp.Body.Close()
		if err != nil {
			s.observe(start, true)
			lastErr = fmt.Errorf("%w: %s: reading response: %v", ErrUnavailable, s.base, err)
			continue
		}
		failed := resp.StatusCode >= 500
		s.observe(start, failed)
		if len(data) > maxResponseBytes {
			return fmt.Errorf("%w: %s: response longer than the %d-byte limit", ErrUnavailable, s.base, maxResponseBytes)
		}
		if failed {
			apiErr := decodeEnvelope(s.base, resp.StatusCode, data)
			return fmt.Errorf("%w: %s: %v", ErrUnavailable, s.base, apiErr)
		}
		if resp.StatusCode >= 300 {
			return decodeEnvelope(s.base, resp.StatusCode, data)
		}
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				return fmt.Errorf("%w: %s: undecodable response: %v", ErrUnavailable, s.base, err)
			}
		}
		return nil
	}
	return lastErr
}

// decodeEnvelope turns a shard's non-2xx body into an *APIError, falling
// back to the raw body when it is not the standard envelope.
func decodeEnvelope(shard string, status int, data []byte) *APIError {
	var env ErrorDoc
	if err := json.Unmarshal(data, &env); err == nil && env.Error.Code != "" {
		return &APIError{Shard: shard, Status: status, Code: env.Error.Code, Message: env.Error.Message}
	}
	msg := string(data)
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return &APIError{Shard: shard, Status: status, Code: CodeInternal, Message: msg}
}

// Health probes GET /v1/health. It bypasses the circuit breaker — the
// aggregated health endpoint is how a downed shard's recovery is noticed.
func (s *ShardClient) Health(ctx context.Context) (HealthDoc, error) {
	var doc HealthDoc
	err := s.do(ctx, http.MethodGet, "/v1/health", nil, nil, nil, &doc, false, true)
	return doc, err
}

// Rules fetches GET /v1/rules.
func (s *ShardClient) Rules(ctx context.Context) (RulesDoc, error) {
	var doc RulesDoc
	err := s.do(ctx, http.MethodGet, "/v1/rules", nil, nil, nil, &doc, true, false)
	return doc, err
}

// PutRules uploads a rule file (text or rules.Set JSON) with an optional
// If-Match version guard — the per-shard CAS of the two-phase swap.
func (s *ShardClient) PutRules(ctx context.Context, body []byte, ifMatch string) (SwapDoc, error) {
	var doc SwapDoc
	h := http.Header{}
	if ifMatch != "" {
		h.Set("If-Match", `"`+ifMatch+`"`)
	}
	err := s.do(ctx, http.MethodPut, "/v1/rules", nil, body, h, &doc, false, false)
	return doc, err
}

// Violations fetches the shard's full violation report.
func (s *ShardClient) Violations(ctx context.Context) (ViolationsDoc, error) {
	var doc ViolationsDoc
	err := s.do(ctx, http.MethodGet, "/v1/violations", nil, nil, nil, &doc, true, false)
	return doc, err
}

// Suspects fetches the shard's full suspect list.
func (s *ShardClient) Suspects(ctx context.Context) (SuspectsDoc, error) {
	var doc SuspectsDoc
	err := s.do(ctx, http.MethodGet, "/v1/suspects", nil, nil, nil, &doc, true, false)
	return doc, err
}

// Tuples fetches one page of the shard's live tuples from the given id
// cursor (limit <= 0 fetches all).
func (s *ShardClient) Tuples(ctx context.Context, cursor, limit int) (TuplesDoc, error) {
	q := url.Values{}
	if cursor > 0 {
		q.Set("cursor", strconv.Itoa(cursor))
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	var doc TuplesDoc
	err := s.do(ctx, http.MethodGet, "/v1/tuples", q, nil, nil, &doc, true, false)
	return doc, err
}

// GetTuple fetches one tuple by id; a shard that does not own it answers
// 404 (*APIError).
func (s *ShardClient) GetTuple(ctx context.Context, id int) (TupleDoc, error) {
	var doc TupleDoc
	err := s.do(ctx, http.MethodGet, "/v1/tuples/"+strconv.Itoa(id), nil, nil, nil, &doc, true, false)
	return doc, err
}

// TupleViolations fetches the rules one tuple currently violates.
func (s *ShardClient) TupleViolations(ctx context.Context, id int) (TupleViolationsDoc, error) {
	var doc TupleViolationsDoc
	err := s.do(ctx, http.MethodGet, "/v1/tuples/"+strconv.Itoa(id)+"/violations", nil, nil, nil, &doc, true, false)
	return doc, err
}

// Batch applies ops as one atomic shard commit.
func (s *ShardClient) Batch(ctx context.Context, ops []violation.Op) (WriteDoc, error) {
	body, err := json.Marshal(BatchRequest{Ops: ops})
	if err != nil {
		return WriteDoc{}, err
	}
	var doc WriteDoc
	err = s.do(ctx, http.MethodPost, "/v1/batch", nil, body, nil, &doc, false, false)
	return doc, err
}
