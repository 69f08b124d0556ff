package monitor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/cfd"
	"repro/violation"
)

// fakeEngine is a hand-driven Engine: tests set the served stats, version
// and epoch directly and bump() wakes WaitChange waiters exactly like the
// real engine's watch channel does.
type fakeEngine struct {
	mu      sync.Mutex
	epoch   uint64
	stats   []violation.RuleStat
	version string
	watch   chan struct{}
}

func newFakeEngine(stats []violation.RuleStat, version string) *fakeEngine {
	return &fakeEngine{stats: stats, version: version, watch: make(chan struct{})}
}

func (f *fakeEngine) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

func (f *fakeEngine) RuleStats() []violation.RuleStat {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]violation.RuleStat, len(f.stats))
	copy(out, f.stats)
	return out
}

func (f *fakeEngine) RulesVersion() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.version
}

func (f *fakeEngine) WaitChange(ctx context.Context, since uint64) (uint64, error) {
	for {
		f.mu.Lock()
		e, w := f.epoch, f.watch
		f.mu.Unlock()
		if e > since {
			return e, nil
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-w:
		}
	}
}

// set replaces the served stats (and optionally the version) and bumps the
// epoch, waking waiters.
func (f *fakeEngine) set(stats []violation.RuleStat, version string) {
	f.mu.Lock()
	f.stats = stats
	if version != "" {
		f.version = version
	}
	f.epoch++
	close(f.watch)
	f.watch = make(chan struct{})
	f.mu.Unlock()
}

func rule(name string) cfd.CFD { return cfd.NewFD([]string{"A"}, name) }

func stat(name string, support, violating int) violation.RuleStat {
	s := violation.RuleStat{Rule: rule(name), Support: support, Violating: violating, Groups: support, Confidence: 1}
	if support > 0 {
		s.Confidence = float64(support-violating) / float64(support)
	}
	return s
}

// fakeClock replaces the monitor's now/sleep pair: sleeps complete
// instantly, advancing the clock by the requested duration and recording it.
type fakeClock struct {
	mu     sync.Mutex
	t      time.Time
	sleeps []time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.sleeps = append(c.sleeps, d)
	c.mu.Unlock()
	return nil
}

func (c *fakeClock) install(m *Monitor) {
	m.now = c.now
	m.sleep = c.sleep
}

func TestCheckDriftTrigger(t *testing.T) {
	eng := newFakeEngine([]violation.RuleStat{stat("B", 10, 0)}, "v1")
	m := New(eng, Policy{MaxSupportDrift: 0.5}, nil)
	if tr := m.Check(); tr != nil {
		t.Fatalf("idle check triggered: %+v", tr)
	}
	eng.set([]violation.RuleStat{stat("B", 14, 0)}, "") // 40% drift: inside
	if tr := m.Check(); tr != nil {
		t.Fatalf("40%% drift triggered at threshold 50%%: %+v", tr)
	}
	eng.set([]violation.RuleStat{stat("B", 16, 0)}, "") // 60% drift: outside
	tr := m.Check()
	if tr == nil || tr.Reason != ReasonDrift {
		t.Fatalf("60%% drift: trigger = %+v, want drift", tr)
	}
	if tr.Rule != rule("B").String() {
		t.Fatalf("trigger rule = %q", tr.Rule)
	}
	// Shrink drifts too.
	eng.set([]violation.RuleStat{stat("B", 4, 0)}, "")
	if tr := m.Check(); tr == nil || tr.Reason != ReasonDrift {
		t.Fatalf("shrink drift: trigger = %+v, want drift", tr)
	}
}

func TestCheckConfidenceHysteresis(t *testing.T) {
	eng := newFakeEngine([]violation.RuleStat{stat("B", 100, 2)}, "v1") // 0.98
	m := New(eng, Policy{MinConfidence: 0.9}, func(context.Context, Trigger) error { return nil })
	eng.set([]violation.RuleStat{stat("B", 100, 20)}, "") // 0.80 < floor
	tr := m.Check()
	if tr == nil || tr.Reason != ReasonConfidence {
		t.Fatalf("confidence drop: trigger = %+v, want confidence", tr)
	}
	// A successful remine that keeps the same (still-dirty) state rebases
	// the baseline below the floor; the clause must not re-fire.
	if err := m.Fire(context.Background(), *tr); err != nil {
		t.Fatal(err)
	}
	if tr := m.Check(); tr != nil {
		t.Fatalf("re-triggered after adopting sub-floor baseline: %+v", tr)
	}
}

func TestCheckMinSupportExemption(t *testing.T) {
	eng := newFakeEngine([]violation.RuleStat{stat("B", 2, 0)}, "v1")
	m := New(eng, Policy{MaxSupportDrift: 0.5, MinConfidence: 0.9, MinSupport: 5}, nil)
	eng.set([]violation.RuleStat{stat("B", 0, 0)}, "") // 100% drift on a thin rule
	if tr := m.Check(); tr != nil {
		t.Fatalf("thin rule tripped the policy: %+v", tr)
	}
	// Growing past MinSupport re-enables the clauses.
	eng.set([]violation.RuleStat{stat("B", 6, 0)}, "")
	if tr := m.Check(); tr == nil || tr.Reason != ReasonDrift {
		t.Fatalf("rule past MinSupport: trigger = %+v, want drift", tr)
	}
}

func TestExternalSwapRebases(t *testing.T) {
	eng := newFakeEngine([]violation.RuleStat{stat("B", 10, 0)}, "v1")
	m := New(eng, Policy{MaxSupportDrift: 0.1, MinConfidence: 0.99}, nil)
	// A swap someone else performed: version changes along with wildly
	// different stats. The new set's adoption is the reference point, so no
	// clause may fire.
	eng.set([]violation.RuleStat{stat("C", 500, 100)}, "v2")
	if tr := m.Check(); tr != nil {
		t.Fatalf("check after external swap triggered: %+v", tr)
	}
	if st := m.Status(); st.BaselineVersion != "v2" {
		t.Fatalf("baseline version = %q after swap", st.BaselineVersion)
	}
}

func TestFireErrorKeepsTriggerArmed(t *testing.T) {
	eng := newFakeEngine([]violation.RuleStat{stat("B", 10, 0)}, "v1")
	boom := errors.New("miner exploded")
	var calls int
	m := New(eng, Policy{MaxSupportDrift: 0.5}, func(context.Context, Trigger) error {
		calls++
		return boom
	})
	eng.set([]violation.RuleStat{stat("B", 20, 0)}, "")
	tr := m.Check()
	if tr == nil {
		t.Fatal("no trigger")
	}
	if err := m.Fire(context.Background(), *tr); !errors.Is(err, boom) {
		t.Fatalf("Fire error = %v", err)
	}
	st := m.Status()
	if st.LastError != boom.Error() || st.Triggers != 1 {
		t.Fatalf("status after failed fire = %+v", st)
	}
	// The baseline did not rebase, so the same trigger is still pending.
	if tr := m.Check(); tr == nil || tr.Reason != ReasonDrift {
		t.Fatalf("trigger disarmed by failed remine: %+v", tr)
	}
	// A later successful fire clears the error and rebases.
	m.remine = func(context.Context, Trigger) error { return nil }
	if err := m.Fire(context.Background(), *tr); err != nil {
		t.Fatal(err)
	}
	st = m.Status()
	if st.LastError != "" || st.Triggers != 2 {
		t.Fatalf("status after recovery = %+v", st)
	}
	if tr := m.Check(); tr != nil {
		t.Fatalf("trigger survived successful remine: %+v", tr)
	}
	if calls != 1 {
		t.Fatalf("failing remine called %d times", calls)
	}
}

// TestRunTriggersOnDriftAndIdlesOtherwise is the loop-level test: Run must
// stay silent over an idle engine, fire exactly once when drift crosses the
// policy, and go silent again after the rebase.
func TestRunTriggersOnDriftAndIdlesOtherwise(t *testing.T) {
	eng := newFakeEngine([]violation.RuleStat{stat("B", 10, 0)}, "v1")
	fired := make(chan Trigger, 8)
	var m *Monitor
	m = New(eng, Policy{MaxSupportDrift: 0.5}, func(_ context.Context, tr Trigger) error {
		// Model a remine that repairs the rules for the new data shape.
		eng.set([]violation.RuleStat{stat("B", 20, 0)}, "v2")
		fired <- tr
		return nil
	})
	(&fakeClock{}).install(m)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- m.Run(ctx) }()

	// Idle churn inside the envelope: no trigger.
	eng.set([]violation.RuleStat{stat("B", 12, 0)}, "")
	select {
	case tr := <-fired:
		t.Fatalf("in-envelope churn fired %+v", tr)
	case <-time.After(50 * time.Millisecond):
	}
	// Cross the envelope: exactly one remine.
	eng.set([]violation.RuleStat{stat("B", 20, 0)}, "")
	select {
	case tr := <-fired:
		if tr.Reason != ReasonDrift {
			t.Fatalf("fired %+v, want drift", tr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drift never fired")
	}
	// Post-remine the baseline is support 20; the same state must not
	// re-fire even as epochs keep moving.
	eng.set([]violation.RuleStat{stat("B", 21, 0)}, "")
	select {
	case tr := <-fired:
		t.Fatalf("refired after rebase: %+v", tr)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v", err)
	}
	if st := m.Status(); st.Triggers != 1 {
		t.Fatalf("triggers = %d, want 1", st.Triggers)
	}
}

// TestRunMinIntervalPacesRetries drives Run against a remine that keeps
// failing: the loop must wait out MinInterval between attempts (observable
// through the fake clock) instead of hot-looping.
func TestRunMinIntervalPacesRetries(t *testing.T) {
	eng := newFakeEngine([]violation.RuleStat{stat("B", 10, 0)}, "v1")
	attempts := make(chan struct{}, 16)
	var calls int
	var mu sync.Mutex
	m := New(eng, Policy{MaxSupportDrift: 0.5, MinInterval: time.Minute},
		func(context.Context, Trigger) error {
			mu.Lock()
			calls++
			n := calls
			mu.Unlock()
			attempts <- struct{}{}
			if n < 3 {
				return fmt.Errorf("attempt %d fails", n)
			}
			return nil
		})
	clk := &fakeClock{}
	clk.install(m)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- m.Run(ctx) }()

	eng.set([]violation.RuleStat{stat("B", 20, 0)}, "")
	for i := 0; i < 3; i++ {
		select {
		case <-attempts:
		case <-time.After(2 * time.Second):
			t.Fatalf("attempt %d never came", i+1)
		}
	}
	cancel()
	<-done
	clk.mu.Lock()
	sleeps := append([]time.Duration(nil), clk.sleeps...)
	clk.mu.Unlock()
	// Attempts 2 and 3 each had to wait out the full minute (the fake clock
	// only advances inside sleep, so the remaining window is always whole).
	var paced int
	for _, d := range sleeps {
		if d == time.Minute {
			paced++
		}
	}
	if paced < 2 {
		t.Fatalf("sleeps %v: want at least two full MinInterval waits", sleeps)
	}
	if st := m.Status(); st.LastError != "" {
		t.Fatalf("recovered run left error %q", st.LastError)
	}
}

// TestRunIdleNeverFires pins the acceptance criterion at the monitor layer:
// an engine that never changes produces zero remine attempts no matter how
// long the loop runs.
func TestRunIdleNeverFires(t *testing.T) {
	eng := newFakeEngine([]violation.RuleStat{stat("B", 10, 0)}, "v1")
	m := New(eng, Policy{MaxSupportDrift: 0.01, MinConfidence: 0.999},
		func(context.Context, Trigger) error {
			t.Error("remine called on an idle engine")
			return nil
		})
	(&fakeClock{}).install(m)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := m.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v", err)
	}
	if st := m.Status(); st.Triggers != 0 || st.Checks == 0 {
		t.Fatalf("idle status = %+v", st)
	}
}

// fakeObserver counts events.
type fakeObserver struct {
	mu       sync.Mutex
	checks   int
	triggers map[string]int
}

func (o *fakeObserver) ObserveCheck() {
	o.mu.Lock()
	o.checks++
	o.mu.Unlock()
}

func (o *fakeObserver) ObserveTrigger(reason string) {
	o.mu.Lock()
	if o.triggers == nil {
		o.triggers = map[string]int{}
	}
	o.triggers[reason]++
	o.mu.Unlock()
}

func TestObserverEvents(t *testing.T) {
	eng := newFakeEngine([]violation.RuleStat{stat("B", 10, 0)}, "v1")
	obs := &fakeObserver{}
	m := New(eng, Policy{MaxSupportDrift: 0.5}, func(context.Context, Trigger) error { return nil },
		WithObserver(obs))
	m.Check()
	eng.set([]violation.RuleStat{stat("B", 20, 0)}, "")
	tr := m.Check()
	if tr == nil {
		t.Fatal("no trigger")
	}
	m.Fire(context.Background(), *tr)
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.checks != 2 || obs.triggers[ReasonDrift] != 1 {
		t.Fatalf("observer saw checks=%d triggers=%v", obs.checks, obs.triggers)
	}
}
