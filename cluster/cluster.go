package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/rules"
)

// Config assembles a Cluster.
type Config struct {
	// Shards are the base URLs of the shard nodes, e.g.
	// ["http://10.0.0.7:8081", "http://10.0.0.8:8081"]. Shard order is part
	// of the cluster's identity: the partitioner routes by index.
	Shards []string
	// Key is the explicit partition key. Empty derives the widest usable key
	// from the rule set served at Init (DeriveKey). The key must stay the
	// same for the lifetime of the shards' data — tuples are placed by it.
	Key []string
	// Timeout bounds every shard round trip (default 5s).
	Timeout time.Duration
	// Observer receives per-shard telemetry; nil disables it.
	Observer Observer
}

// Cluster is the coordinator's view of the shard fleet: the shard clients,
// the partitioner, the global id counter, and a cache of the rule set every
// shard serves. It is safe for concurrent use.
type Cluster struct {
	shards []*ShardClient
	obs    Observer

	// nextID is the global tuple id counter: ids are assigned here, in
	// arrival order exactly like a single node's, and pinned on the owning
	// shard. Recovered at Init as the maximum next_id across shards.
	nextID atomic.Int64

	mu    sync.Mutex
	part  *Partitioner
	order []string // served rule strings in set order (the merge order)

	// swapMu serialises coordinated rule swaps; concurrent swaps through one
	// coordinator would interleave their per-shard CAS sequences.
	swapMu sync.Mutex
}

// New builds the cluster handle; call Init before serving.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: at least one shard is required")
	}
	c := &Cluster{obs: cfg.Observer}
	for i, base := range cfg.Shards {
		c.shards = append(c.shards, NewShardClient(base, strconv.Itoa(i), cfg.Timeout, cfg.Observer))
	}
	if cfg.Key != nil {
		// Only the key for now: Init completes the partitioner once the
		// shards have told it the schema.
		c.part = &Partitioner{key: append([]string(nil), cfg.Key...)}
	}
	return c, nil
}

// coordErr synthesizes a coordinator-side API error (no shard involved).
func coordErr(status int, code, format string, args ...any) *APIError {
	return &APIError{Shard: "coordinator", Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// Init contacts every shard — all must answer — verifies they serve one
// common rule set, builds the partitioner (checking the key against the
// rules), and recovers the global id counter as the maximum next_id across
// shards. Call it once before serving; a shard fleet still booting makes
// Init fail fast, so callers retry.
func (c *Cluster) Init(ctx context.Context) error {
	healths := make([]HealthDoc, len(c.shards))
	err := c.scatter("init", func(i int, s *ShardClient) error {
		doc, err := s.Health(ctx)
		healths[i] = doc
		return err
	})
	if err != nil {
		return err
	}
	next := 0
	for i, h := range healths {
		if h.NextID > next {
			next = h.NextID
		}
		if h.RulesVersion != healths[0].RulesVersion {
			return coordErr(http.StatusConflict, CodeConflict,
				"shards serve mixed rule sets (%s: %s, %s: %s); repair before forming the cluster",
				c.shards[0].URL(), healths[0].RulesVersion, c.shards[i].URL(), h.RulesVersion)
		}
	}
	c.nextID.Store(int64(next))
	err = c.loadRules(ctx, func(attrs []string, set *rules.Set) (*Partitioner, error) {
		key := DeriveKey(attrs, set)
		if c.part != nil { // explicit Config.Key
			key = c.part.key
		}
		return NewPartitioner(attrs, key)
	})
	if err != nil {
		return err
	}
	if c.obs != nil {
		for i := range c.shards {
			c.obs.ObserveShardHealth(strconv.Itoa(i), true)
		}
	}
	return nil
}

// loadRules fetches and parses the rule set shard 0 serves, checks it
// against the partitioner that part returns — called under c.mu with the
// served schema and set — and caches that partitioner and the set's merge
// order.
func (c *Cluster) loadRules(ctx context.Context, part func(attrs []string, set *rules.Set) (*Partitioner, error)) error {
	doc, err := c.shards[0].Rules(ctx)
	if err != nil {
		return err
	}
	set, err := rules.Parse(string(doc.Ruleset))
	if err != nil {
		return fmt.Errorf("cluster: shard %s serves an unparseable rule set: %w", c.shards[0].URL(), err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := part(doc.Attributes, set)
	if err != nil {
		return err
	}
	if err := p.Check(set); err != nil {
		return err
	}
	c.part, c.order = p, ruleStrings(set)
	return nil
}

// ruleStrings renders a set's rules in set order — the deterministic merge
// order of every scattered report.
func ruleStrings(set *rules.Set) []string {
	cfds := set.CFDs()
	out := make([]string, len(cfds))
	for i, r := range cfds {
		out[i] = r.String()
	}
	return out
}

// Shards returns the number of shard nodes.
func (c *Cluster) Shards() int { return len(c.shards) }

// Key returns the partition key attributes.
func (c *Cluster) Key() []string { return c.partitioner().Key() }

// Schema returns the attribute names, in order, the cluster serves.
func (c *Cluster) Schema() []string { return c.partitioner().Schema() }

// NextID returns the next global tuple id the coordinator would assign.
func (c *Cluster) NextID() int { return int(c.nextID.Load()) }

// partitioner returns the partitioner Init built.
func (c *Cluster) partitioner() *Partitioner {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.part
}

// scatter runs fn once per shard concurrently and returns the most useful
// error: an *APIError if any shard rejected (a definite answer), otherwise
// the first unavailability. op names the operation for telemetry.
func (c *Cluster) scatter(op string, fn func(i int, s *ShardClient) error) error {
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, s := range c.shards {
		wg.Add(1)
		go func(i int, s *ShardClient) {
			defer wg.Done()
			errs[i] = fn(i, s)
		}(i, s)
	}
	wg.Wait()
	var unavailable error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var api *APIError
		if errors.As(err, &api) && !errors.Is(err, ErrUnavailable) {
			if c.obs != nil {
				c.obs.ObserveScatterError(op)
			}
			return err
		}
		if unavailable == nil {
			unavailable = err
		}
	}
	if unavailable != nil && c.obs != nil {
		c.obs.ObserveScatterError(op)
	}
	return unavailable
}

// ShardStatus is one shard's slice of the coordinator's health document:
// the counts out of the shard's own health when it answered, otherwise why
// it is down.
type ShardStatus struct {
	Dirty        *int    `json:"dirty,omitempty"`
	Epoch        *uint64 `json:"epoch,omitempty"`
	Error        string  `json:"error,omitempty"`
	Healthy      bool    `json:"healthy"`
	Index        int     `json:"index"`
	NextID       *int    `json:"next_id,omitempty"`
	Rules        *int    `json:"rules,omitempty"`
	RulesVersion string  `json:"rules_version,omitempty"`
	Tuples       *int    `json:"tuples,omitempty"`
	URL          string  `json:"url"`
}

// ClusterHealth is the coordinator's GET /v1/health: the aggregated fleet
// health. It never fails: a shard that cannot answer degrades Status instead.
type ClusterHealth struct {
	Dirty        int           `json:"dirty"` // sum over answering shards; exact, since each id lives on one shard
	Mode         string        `json:"mode"`  // "coordinator"
	NextID       int           `json:"next_id"`
	PartitionKey []string      `json:"partition_key"`
	RulesVersion string        `json:"rules_version"` // the common served fingerprint; "" while mixed or unknown
	Shards       []ShardStatus `json:"shards"`
	Status       string        `json:"status"` // "ok" or "degraded"
	Tuples       int           `json:"tuples"` // sum over answering shards
}

// Health probes every shard (bypassing circuit breakers — this is how a
// downed shard's recovery is noticed) and aggregates. Status degrades when
// any shard is unreachable or the fleet serves mixed rules versions.
func (c *Cluster) Health(ctx context.Context) ClusterHealth {
	out := ClusterHealth{
		Status: "ok", Mode: "coordinator", PartitionKey: c.Key(),
		Shards: make([]ShardStatus, len(c.shards)), NextID: c.NextID(),
	}
	_ = c.scatter("health", func(i int, s *ShardClient) error {
		doc, err := s.Health(ctx)
		st := ShardStatus{Index: i, URL: s.URL(), Healthy: err == nil}
		if err != nil {
			st.Error = err.Error()
		} else {
			st.Tuples, st.Rules, st.Dirty, st.Epoch = &doc.Tuples, &doc.Rules, &doc.Dirty, &doc.Epoch
			st.RulesVersion, st.NextID = doc.RulesVersion, &doc.NextID
		}
		out.Shards[i] = st
		return nil // aggregation never fails
	})
	version := ""
	for _, st := range out.Shards {
		if !st.Healthy {
			out.Status = "degraded"
			continue
		}
		out.Tuples += *st.Tuples
		out.Dirty += *st.Dirty
		if version == "" {
			version = st.RulesVersion
		} else if version != st.RulesVersion {
			version = "mixed"
		}
	}
	if version == "mixed" {
		out.Status = "degraded"
	} else {
		out.RulesVersion = version
	}
	return out
}

// Rules returns the rule document the fleet serves, verifying every shard
// agrees on the fingerprint — a mixed fleet (possible only after a failed
// swap rollback or out-of-band edits) is unavailable until repaired. The
// document carries no Stats: one shard's live counters are not the fleet's.
func (c *Cluster) Rules(ctx context.Context) (RulesDoc, error) {
	docs := make([]RulesDoc, len(c.shards))
	err := c.scatter("rules", func(i int, s *ShardClient) error {
		var err error
		docs[i], err = s.Rules(ctx)
		return err
	})
	if err != nil {
		return RulesDoc{}, err
	}
	for i := 1; i < len(docs); i++ {
		if docs[i].Version != docs[0].Version {
			return RulesDoc{}, fmt.Errorf("%w: shards serve mixed rules versions (%s: %s, %s: %s)",
				ErrUnavailable, c.shards[0].URL(), docs[0].Version, c.shards[i].URL(), docs[i].Version)
		}
	}
	docs[0].Stats = nil
	return docs[0], nil
}

// refreshRules re-reads the served rule set from shard 0 into the merge
// cache — the recovery path when a merge meets a rule string the cache does
// not know (rules changed out of band).
func (c *Cluster) refreshRules(ctx context.Context) error {
	return c.loadRules(ctx, func([]string, *rules.Set) (*Partitioner, error) { return c.part, nil })
}

// SwapRules replaces the rule set on every shard with set — body is the rule
// file it was parsed from, forwarded to the shards verbatim — all-or-nothing,
// with a two-phase fingerprint CAS:
//
//	prepare — every shard must answer GET /v1/rules; the captured version
//	          is the shard's CAS token and the captured ruleset document its
//	          rollback state. The uploaded set must keep every rule's LHS a
//	          superset of the partition key (anything else is rejected
//	          before any shard changes). With a non-empty ifMatch,
//	          every shard's current version must appear in the list (the
//	          decoded tags of the client's If-Match header; match-any "*"
//	          decodes to an empty list, i.e. unconditional).
//	commit  — PUT the new set to each shard with If-Match <captured
//	          version>: a concurrent out-of-band swap loses the CAS and
//	          aborts the coordinated swap.
//	rollback — a commit failure at shard k restores the captured set on
//	          shards 0..k-1 with If-Match <new version>, so the fleet
//	          converges back to the old set and a mixed fleet is never left
//	          behind silently. If a rollback write itself fails the fleet is
//	          mixed: the error says so, aggregated health degrades (mixed
//	          versions), and reads through Rules refuse until repaired.
//
// The swap is not atomic with respect to concurrent reads — a scatter
// running mid-swap can observe shard A on the new set and shard B on the
// old — but it is never left partially applied: after SwapRules returns
// (success or error, short of the explicit mixed failure) every shard
// serves the same fingerprint it would without the attempt.
func (c *Cluster) SwapRules(ctx context.Context, set *rules.Set, body []byte, ifMatch []string) (SwapDoc, error) {
	c.swapMu.Lock()
	defer c.swapMu.Unlock()
	outcome := func(res SwapDoc, o string, err error) (SwapDoc, error) {
		if c.obs != nil {
			c.obs.ObserveSwap(o)
		}
		return res, err
	}
	if err := c.partitioner().Check(set); err != nil {
		return outcome(SwapDoc{}, "rejected", coordErr(http.StatusUnprocessableEntity, CodeUnprocessable, "%v", err))
	}

	// Prepare: capture every shard's CAS token and rollback state.
	captured := make([]RulesDoc, len(c.shards))
	if err := c.scatter("swap", func(i int, s *ShardClient) error {
		var err error
		captured[i], err = s.Rules(ctx)
		return err
	}); err != nil {
		return outcome(SwapDoc{}, "aborted", err)
	}
	if len(ifMatch) > 0 {
		for i, doc := range captured {
			found := false
			for _, want := range ifMatch {
				if doc.Version == want {
					found = true
					break
				}
			}
			if !found {
				return outcome(SwapDoc{}, "rejected", coordErr(http.StatusConflict, CodeConflict,
					"shard %s serves rules version %q, which does not match If-Match %q", c.shards[i].URL(), doc.Version, ifMatch))
			}
		}
	}

	// Commit sequentially: the first shard also validates the set against
	// the serving schema, so a semantic rejection aborts before any swap.
	var newVersion string
	var res SwapDoc
	for i, s := range c.shards {
		doc, err := s.PutRules(ctx, body, captured[i].Version)
		if err == nil {
			newVersion = doc.Version
			res = SwapDoc{Swapped: doc.Swapped, Version: doc.Version, Rules: doc.Rules, Shards: len(c.shards)}
			continue
		}
		// Roll the already-swapped shards back to their captured sets.
		var failed []string
		for j := 0; j < i; j++ {
			if _, rbErr := c.shards[j].PutRules(ctx, captured[j].Ruleset, newVersion); rbErr != nil {
				failed = append(failed, fmt.Sprintf("%s: %v", c.shards[j].URL(), rbErr))
			}
		}
		if len(failed) > 0 {
			return outcome(SwapDoc{}, "mixed", fmt.Errorf(
				"%w: swap failed at shard %s (%v) and rollback failed on %s — the fleet serves mixed rule sets until repaired",
				ErrUnavailable, s.URL(), err, strings.Join(failed, "; ")))
		}
		return outcome(SwapDoc{}, "aborted", fmt.Errorf("cluster: swap aborted, no shard changed: %w", err))
	}

	c.mu.Lock()
	c.order = ruleStrings(set)
	c.mu.Unlock()
	return outcome(res, "committed", nil)
}
