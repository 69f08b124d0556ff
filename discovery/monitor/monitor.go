// Package monitor is the continuous rule-maintenance layer between the live
// violation engine and the batch discovery algorithms: it watches the
// engine's mutation stream, maintains per-served-rule support and confidence
// from the counters the engine's indexes already keep per rule (no rescans), and
// fires a bounded remine only when a staleness policy says the data has
// drifted away from the rules.
//
// The paper's miners (CTANE, CFDMiner, FastCFD) take a static instance, and
// re-running them on a timer cannot keep up with a live relation. The hybrid
// here is the standard materialized-view answer: exact incremental tracking
// of the cheap quantities (support, confidence — both O(1) per rule off
// core.GroupIndex counters), and a re-run of the expensive global computation
// (mining a new cover) only when those quantities cross thresholds. The
// remine is the caller's: cmd/cfdserve bounds it by the support threshold and
// LHS size it discovers with (-support, -maxlhs), and its result flows
// through the caller's existing SwapRules/WAL path, so the monitor never
// mutates the engine directly.
//
// A Monitor is driven either by Run (blocking loop over Engine.WaitChange)
// or by calling Check/Fire manually; cfdserve uses Run. The clock is
// injectable, so policy timing is testable without sleeping.
package monitor

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/violation"
)

// Engine is the slice of *violation.Engine the monitor needs: the mutation
// epoch and its long-poll, the counter-derived per-rule statistics, and the
// rule-set fingerprint used to detect swaps performed by others.
type Engine interface {
	Epoch() uint64
	WaitChange(ctx context.Context, since uint64) (uint64, error)
	RuleStats() []violation.RuleStat
	RulesVersion() string
}

// Policy is the staleness policy: when any enabled clause fires for any
// served rule, the monitor triggers a remine. Zero values disable the
// corresponding clause, so the zero Policy never triggers.
type Policy struct {
	// MaxSupportDrift triggers when a rule's live support has moved more
	// than this fraction away from its support at the last adoption:
	// |now-then| / max(then, 1) > MaxSupportDrift. <= 0 disables.
	MaxSupportDrift float64

	// MinConfidence triggers when a rule's live confidence falls below this
	// floor. The check has hysteresis: it only fires for rules whose
	// confidence was at or above the floor when the baseline was taken, so
	// a remine that keeps the rule set (dirty data the miners still accept)
	// does not re-trigger every epoch. <= 0 disables.
	MinConfidence float64

	// MinSupport exempts thin rules from the drift and confidence clauses:
	// a rule participates only when max(baseline, live) support reaches
	// this many tuples. Small absolute changes on near-empty rules would
	// otherwise read as large relative drift. <= 0 means no exemption.
	MinSupport int

	// MinInterval is the minimum spacing between remine attempts (successful
	// or failed). A pending trigger waits out the remainder rather than
	// being dropped. 0 means no pacing.
	MinInterval time.Duration
}

// Trigger records why a remine fired.
type Trigger struct {
	// Reason is "drift" or "confidence".
	Reason string `json:"reason"`
	// Rule is the serialized rule that tripped the policy.
	Rule string `json:"rule,omitempty"`
	// Detail is a human-readable account of the threshold crossing.
	Detail string `json:"detail"`
	// Epoch is the engine epoch at which the trigger was observed.
	Epoch uint64 `json:"epoch"`
}

// Reasons a Trigger can carry, in the order Check evaluates them.
const (
	ReasonDrift      = "drift"
	ReasonConfidence = "confidence"
)

// Observer receives monitor events. Implementations must be cheap and
// non-blocking; the monitor calls them outside its mutex. The obs wiring
// lives in the caller (cfdserve) so this package, like violation, never
// imports the metrics layer.
type Observer interface {
	// ObserveCheck is called once per policy evaluation.
	ObserveCheck()
	// ObserveTrigger is called when a check trips the policy, with the
	// trigger's reason.
	ObserveTrigger(reason string)
}

// baselineStat is a rule's support and confidence at the moment the current
// rule set was adopted (monitor start, external swap, or successful remine).
type baselineStat struct {
	support    int
	confidence float64
}

// Monitor tracks one Engine under one Policy and calls remine when the
// policy trips. Safe for concurrent use; Run is typically the only caller
// of the mutating methods, with Status polled from health handlers.
type Monitor struct {
	eng    Engine
	pol    Policy
	remine func(ctx context.Context, tr Trigger) error
	obs    Observer

	// now and sleep are the injectable clock (tests replace both).
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error

	mu          sync.Mutex
	baseline    map[string]baselineStat // rule.String() -> stats at adoption
	baseVersion string                  // RulesVersion the baseline belongs to
	baseEpoch   uint64                  // engine epoch at adoption
	lastRun     time.Time               // last remine attempt (zero: none yet)
	haveRun     bool
	lastTrigger *Trigger
	lastErr     error
	checks      uint64
	triggers    uint64
}

// Option configures a Monitor.
type Option func(*Monitor)

// WithObserver attaches an Observer for check/trigger events.
func WithObserver(o Observer) Option { return func(m *Monitor) { m.obs = o } }

// New returns a Monitor over eng with the baseline seeded from the engine's
// current rules and counters. remine performs one bounded re-discovery and
// swap; it is only ever called from Run (or Fire), one invocation at a time.
func New(eng Engine, pol Policy, remine func(ctx context.Context, tr Trigger) error, opts ...Option) *Monitor {
	m := &Monitor{
		eng:    eng,
		pol:    pol,
		remine: remine,
		now:    time.Now,
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
	}
	for _, o := range opts {
		o(m)
	}
	m.mu.Lock()
	m.rebaseLocked()
	m.mu.Unlock()
	return m
}

// rebaseLocked re-seeds the baseline from the engine's current state. Called
// at construction, after a successful remine, and when an external swap is
// detected.
func (m *Monitor) rebaseLocked() {
	stats := m.eng.RuleStats()
	base := make(map[string]baselineStat, len(stats))
	for _, s := range stats {
		base[s.Rule.String()] = baselineStat{support: s.Support, confidence: s.Confidence}
	}
	m.baseline = base
	m.baseVersion = m.eng.RulesVersion()
	m.baseEpoch = m.eng.Epoch()
}

// Check evaluates the policy against the baseline and returns the first
// trigger found, or nil. Rules swapped in by someone else since the last
// check rebase the baseline first (their adoption is the new reference
// point). Check never calls remine.
func (m *Monitor) Check() *Trigger {
	m.mu.Lock()
	m.checks++
	if v := m.eng.RulesVersion(); v != m.baseVersion {
		m.rebaseLocked()
	}
	tr := m.checkLocked()
	m.mu.Unlock()
	if m.obs != nil {
		m.obs.ObserveCheck()
	}
	return tr
}

func (m *Monitor) checkLocked() *Trigger {
	epoch := m.eng.Epoch()
	stats := m.eng.RuleStats()
	for _, s := range stats {
		key := s.Rule.String()
		b, ok := m.baseline[key]
		if !ok {
			// Unreachable while baseline and stats come from the same
			// version, but a fresh rule counts as adopted-now, not drifted.
			continue
		}
		if m.pol.MinSupport > 0 && s.Support < m.pol.MinSupport && b.support < m.pol.MinSupport {
			continue
		}
		if m.pol.MaxSupportDrift > 0 {
			ref := b.support
			if ref < 1 {
				ref = 1
			}
			drift := float64(abs(s.Support-b.support)) / float64(ref)
			if drift > m.pol.MaxSupportDrift {
				return &Trigger{
					Reason: ReasonDrift,
					Rule:   key,
					Detail: fmt.Sprintf("support %d -> %d (drift %.2f > %.2f)", b.support, s.Support, drift, m.pol.MaxSupportDrift),
					Epoch:  epoch,
				}
			}
		}
		if m.pol.MinConfidence > 0 && b.confidence >= m.pol.MinConfidence && s.Confidence < m.pol.MinConfidence {
			return &Trigger{
				Reason: ReasonConfidence,
				Rule:   key,
				Detail: fmt.Sprintf("confidence %.3f < floor %.3f (was %.3f)", s.Confidence, m.pol.MinConfidence, b.confidence),
				Epoch:  epoch,
			}
		}
	}
	return nil
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// untilAllowed returns how long MinInterval pacing still blocks a remine.
func (m *Monitor) untilAllowed() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pol.MinInterval <= 0 || !m.haveRun {
		return 0
	}
	return m.pol.MinInterval - m.now().Sub(m.lastRun)
}

// Fire performs one remine attempt for tr, recording the outcome: on
// success the baseline rebases to the post-swap state, on failure the error
// is kept for Status and the trigger stays armed (Check will find it again;
// MinInterval paces the retry). Fire does not itself enforce MinInterval —
// Run does, and manual callers opt out by calling Fire directly.
func (m *Monitor) Fire(ctx context.Context, tr Trigger) error {
	m.mu.Lock()
	m.triggers++
	m.lastTrigger = &tr
	m.lastRun = m.now()
	m.haveRun = true
	m.mu.Unlock()
	if m.obs != nil {
		m.obs.ObserveTrigger(tr.Reason)
	}
	err := m.remine(ctx, tr)
	m.mu.Lock()
	m.lastErr = err
	if err == nil {
		m.rebaseLocked()
	}
	m.mu.Unlock()
	return err
}

// Run is the maintenance loop: long-poll the engine for changes, evaluate
// the policy, pace and fire remines. It returns when ctx is cancelled (with
// ctx's error) and is meant to be the goroutine's whole body.
func (m *Monitor) Run(ctx context.Context) error {
	seen := m.eng.Epoch()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		tr := m.Check()
		if tr == nil {
			e, err := m.eng.WaitChange(ctx, seen)
			if err != nil {
				return err
			}
			seen = e
			continue
		}
		if wait := m.untilAllowed(); wait > 0 {
			// Sleep out the pacing window, then re-check: the pending
			// trigger may have healed (or changed reason) in the meantime.
			if err := m.sleep(ctx, wait); err != nil {
				return err
			}
			continue
		}
		m.Fire(ctx, *tr)
	}
}

// Status is a point-in-time snapshot of the monitor for health endpoints.
type Status struct {
	Checks          uint64    `json:"checks"`
	Triggers        uint64    `json:"triggers"`
	BaselineEpoch   uint64    `json:"baseline_epoch"`
	BaselineVersion string    `json:"baseline_version"`
	LastTrigger     *Trigger  `json:"last_trigger,omitempty"`
	LastRun         time.Time `json:"last_run,omitzero"`
	LastError       string    `json:"last_error,omitempty"`
}

// Status returns the monitor's current counters and last trigger/run/error.
func (m *Monitor) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		Checks:          m.checks,
		Triggers:        m.triggers,
		BaselineEpoch:   m.baseEpoch,
		BaselineVersion: m.baseVersion,
	}
	if m.lastTrigger != nil {
		tr := *m.lastTrigger
		st.LastTrigger = &tr
	}
	if m.haveRun {
		st.LastRun = m.lastRun
	}
	if m.lastErr != nil {
		st.LastError = m.lastErr.Error()
	}
	return st
}
