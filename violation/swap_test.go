package violation_test

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/cfd"
	"repro/rules"
	"repro/violation"
)

// swapEquivalent builds a fresh engine over the same tuples and the target
// rule set — the state SwapRules must land in exactly.
func swapEquivalent(t *testing.T, eng *violation.Engine, set *rules.Set) *violation.Engine {
	t.Helper()
	rel, ids, err := eng.Relation()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := violation.New(eng.Attributes(), set, violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Engine ids must line up: replay the live tuples at their original ids
	// via inserts and deletes of filler tuples.
	next := 0
	for i, id := range ids {
		for next < id {
			fid, err := fresh.Insert(rel.Row(i)...)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Delete(fid); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if _, err := fresh.Insert(rel.Row(i)...); err != nil {
			t.Fatal(err)
		}
		next++
	}
	return fresh
}

// TestSwapRulesMatchesRebuild is the defining check: swapping to a new set
// must land the engine in exactly the state of an engine built from scratch
// over the same tuples and the new rules. The reversed target keeps each LHS
// set's whole rule list while moving every rule.
func TestSwapRulesMatchesRebuild(t *testing.T) {
	fx := fixtures(t)[0]
	full := fx.rules
	reversed := slices.Clone(full)
	slices.Reverse(reversed)
	targets := []struct {
		name string
		set  *rules.Set
	}{
		{"drop-half", rules.Of(full[:3]...)},
		{"disjoint", rules.Of(
			cfd.NewFD([]string{"PN"}, "NM"),
			cfd.CFD{LHS: []string{"CT"}, RHS: "CC", LHSPattern: []string{"NYC"}, RHSPattern: "01"},
		)},
		{"reorder-and-add", rules.Of(append([]cfd.CFD{
			cfd.NewFD([]string{"NM"}, "PN"),
		}, full[1], full[0])...)},
		{"empty", rules.Of()},
		{"identical", rules.Of(full...)},
		{"reversed", rules.Of(reversed...)},
	}
	for _, tc := range targets {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				eng := custEngine(t, true, violation.Options{Workers: workers})
				old := eng.RuleSet()
				delta, err := eng.SwapRules(context.Background(), tc.set)
				if err != nil {
					t.Fatal(err)
				}
				if delta.Old != old.Fingerprint() || delta.New != tc.set.Fingerprint() {
					t.Fatalf("delta versions %s -> %s, want %s -> %s", delta.Old, delta.New, old.Fingerprint(), tc.set.Fingerprint())
				}
				if len(delta.Added)+len(delta.Retained) != tc.set.Len() {
					t.Fatalf("delta %v does not cover the new set", delta)
				}
				if len(delta.Removed)+len(delta.Retained) != old.Len() {
					t.Fatalf("delta %v does not cover the old set", delta)
				}
				assertSameState(t, eng, swapEquivalent(t, eng, tc.set))
				if !reflect.DeepEqual(eng.Rules(), tc.set.CFDs()) {
					t.Fatalf("engine rules %v, want %v", eng.Rules(), tc.set.CFDs())
				}
				if got := eng.RuleSet().Fingerprint(); got != tc.set.Fingerprint() {
					t.Fatalf("served fingerprint %s, want %s", got, tc.set.Fingerprint())
				}
			}
		})
	}
}

// TestSwapRulesKeepsMutating: after a swap the engine keeps accepting
// mutations, maintained under the new rules only.
func TestSwapRulesKeepsMutating(t *testing.T) {
	eng := custEngine(t, true, violation.Options{})
	set := rules.Of(cfd.NewFD([]string{"CC", "ZIP"}, "STR"))
	if _, err := eng.SwapRules(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	// A tuple violating only the dropped constant rule must stay clean…
	id, err := eng.Insert("99", "131", "0000000", "Nic", "Canal St.", "AMS", "1011")
	if err != nil {
		t.Fatal(err)
	}
	if violated, err := eng.TupleViolations(id); err != nil || len(violated) != 0 {
		t.Fatalf("tuple %d violates %v under the swapped set, want none", id, violated)
	}
	// …while a street split under the retained FD is still caught.
	id2, err := eng.Insert("01", "212", "1234567", "Ann", "Other St.", "NYC", "01202")
	if err != nil {
		t.Fatal(err)
	}
	if violated, err := eng.TupleViolations(id2); err != nil || len(violated) != 1 {
		t.Fatalf("tuple %d violates %v, want the retained FD", id2, violated)
	}
	assertSameState(t, eng, swapEquivalent(t, eng, set))
}

// TestSwapRulesEpochAndSnapshot: a swap invalidates the cached reader
// snapshot like any other mutation.
func TestSwapRulesEpochAndSnapshot(t *testing.T) {
	eng := custEngine(t, true, violation.Options{})
	before := eng.Report()
	if len(before.Violations) == 0 {
		t.Fatal("fixture must be dirty")
	}
	epoch := eng.Epoch()
	if _, err := eng.SwapRules(context.Background(), rules.Of()); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() == epoch {
		t.Fatal("swap must bump the epoch")
	}
	after := eng.Report()
	if len(after.Violations) != 0 || after.RulesChecked != 0 {
		t.Fatalf("report after swap to empty set: %+v", after)
	}
}

// TestSwapRulesRejectsInvalid: a set naming unknown attributes (or malformed
// rules) is rejected atomically — the engine keeps serving the old set.
func TestSwapRulesRejectsInvalid(t *testing.T) {
	eng := custEngine(t, true, violation.Options{})
	before := eng.Report()
	fp := eng.RuleSet().Fingerprint()
	bad := []*rules.Set{
		rules.Of(cfd.NewFD([]string{"BOGUS"}, "CT")),
		rules.Of(cfd.NewFD([]string{"CC"}, "BOGUS")),
		rules.Of(cfd.CFD{LHS: []string{"CC"}, RHS: "CT", LHSPattern: []string{"1", "2"}, RHSPattern: "_"}),
	}
	for _, set := range bad {
		if _, err := eng.SwapRules(context.Background(), set); err == nil {
			t.Fatalf("swap to %v must fail", set.CFDs())
		}
	}
	if got := eng.RuleSet().Fingerprint(); got != fp {
		t.Fatal("failed swaps must leave the rule set unchanged")
	}
	if !reflect.DeepEqual(eng.Report(), before) {
		t.Fatal("failed swaps must leave the violation state unchanged")
	}
}

// failedSwapTarget is the set the failing swaps below try to install: the cust
// rules plus one rule on an LHS set the engine already indexes ({CC}, under a
// new RHS attribute) and one on a fresh LHS set. Indexes are shared between the
// rules of an LHS set, so a swap that touched the live {CC} index before
// failing would show.
func failedSwapTarget(t *testing.T) *rules.Set {
	t.Helper()
	return rules.Of(append(append([]cfd.CFD(nil), fixtures(t)[0].rules...),
		cfd.NewFD([]string{"CC"}, "AC"),
		cfd.NewFD([]string{"PN"}, "NM"),
	)...)
}

// assertSwapInvisible holds an engine whose swap just failed to a twin built
// the same way that never attempted it: the same rule statistics, report
// (epoch included), suspects — and the same delta out of the next insert, into
// a group both of the target's added rules would have made violating.
func assertSwapInvisible(t *testing.T, eng, twin *violation.Engine) {
	t.Helper()
	compare := func(when string) {
		t.Helper()
		if eng.RulesVersion() != twin.RulesVersion() {
			t.Fatalf("%s: serving %s, the twin %s", when, eng.RulesVersion(), twin.RulesVersion())
		}
		if got, want := eng.RuleStats(), twin.RuleStats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rule stats\nengine: %+v\ntwin:   %+v", when, got, want)
		}
		if got, want := eng.Report(), twin.Report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: report\nengine: %+v\ntwin:   %+v", when, got, want)
		}
		if got, want := eng.Suspects(), twin.Suspects(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: suspects %v, the twin's %v", when, got, want)
		}
	}
	compare("after the failed swap")
	since := eng.Epoch()
	for _, e := range []*violation.Engine{eng, twin} {
		if _, err := e.Insert("01", "999", "1111111", "Mike", "Elsewhere", "NYC", "07974"); err != nil {
			t.Fatal(err)
		}
	}
	got, err := eng.Changes(since)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Changes(since)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delta of the next insert\nengine: %+v\ntwin:   %+v", got, want)
	}
	if got.Empty() {
		t.Fatal("the probe insert should change the violation state")
	}
	compare("after the next insert")
}

// TestSwapRulesCancelled: a cancelled context aborts the index build with no
// state change.
func TestSwapRulesCancelled(t *testing.T) {
	eng := custEngine(t, true, violation.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.SwapRules(ctx, failedSwapTarget(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled swap: err = %v, want context.Canceled", err)
	}
	assertSwapInvisible(t, eng, custEngine(t, true, violation.Options{}))
}

// ruleRefusingLog journals tuple ops and refuses rule swaps with err.
type ruleRefusingLog struct{ err error }

func (ruleRefusingLog) Append([]violation.Op) error    { return nil }
func (l ruleRefusingLog) AppendRules(*rules.Set) error { return l.err }

// TestSwapRulesWALOnlyLog: an attached CommitLog whose AppendRules fails,
// after every fresh index has been built — a log that journals tuple ops only
// refuses swaps this way, a full disk fails them — vetoes the swap with ErrWAL
// instead of desyncing the log, and leaves the engine as it was.
func TestSwapRulesWALOnlyLog(t *testing.T) {
	for name, log := range map[string]violation.CommitLog{
		"op-only log":         ruleRefusingLog{errors.New("this log journals tuple ops only")},
		"failing AppendRules": ruleRefusingLog{errors.New("disk full")},
	} {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				eng := custEngine(t, true, violation.Options{Workers: workers})
				eng.AttachWAL(log)
				if _, err := eng.SwapRules(context.Background(), failedSwapTarget(t)); !errors.Is(err, violation.ErrWAL) {
					t.Fatalf("swap through %s: err = %v, want ErrWAL", name, err)
				}
				assertSwapInvisible(t, eng, custEngine(t, true, violation.Options{Workers: workers}))
			}
		})
	}
}

// TestSwapRulesNil: a nil set swaps to the empty set.
func TestSwapRulesNil(t *testing.T) {
	eng := custEngine(t, true, violation.Options{})
	delta, err := eng.SwapRules(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Retained) != 0 || len(delta.Added) != 0 || len(delta.Removed) != 6 {
		t.Fatalf("delta = %v", delta)
	}
	if eng.RuleSet().Len() != 0 || len(eng.Rules()) != 0 {
		t.Fatal("nil swap must serve the empty set")
	}
}

// TestSwapRulesIf: a conditional swap is a compare-and-swap on the served
// version — a stale expectation is refused with ErrRulesVersion and changes
// nothing, and of concurrent swaps expecting one version exactly one wins.
func TestSwapRulesIf(t *testing.T) {
	eng := custEngine(t, true, violation.Options{})
	ctx := context.Background()
	served := eng.RulesVersion()
	if _, err := eng.SwapRulesIf(ctx, nil, []string{"stale"}); !errors.Is(err, violation.ErrRulesVersion) {
		t.Fatalf("stale expectation: err = %v, want ErrRulesVersion", err)
	}
	if eng.RulesVersion() != served {
		t.Fatal("a refused swap must leave the rule set unchanged")
	}
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = eng.SwapRulesIf(ctx, nil, []string{"stale", served})
		}()
	}
	wg.Wait()
	won := 0
	for _, err := range errs {
		if err == nil {
			won++
		} else if !errors.Is(err, violation.ErrRulesVersion) {
			t.Fatalf("lost swap: err = %v, want ErrRulesVersion", err)
		}
	}
	if won != 1 {
		t.Fatalf("%d of %d swaps expecting %s won, want exactly 1", won, len(errs), served)
	}
}

// TestSwapRulesConcurrentReaders races swaps against snapshot readers and
// point reads; under -race this proves the swap path's locking. Every
// observed snapshot must be internally consistent and belong entirely to one
// of the two rule sets, never a mix.
func TestSwapRulesConcurrentReaders(t *testing.T) {
	fx := fixtures(t)[0]
	setA := rules.Of(fx.rules...)
	setB := rules.Of(fx.rules[1], cfd.NewFD([]string{"NM"}, "PN"))
	eng, err := violation.New(fx.rel.Attributes(), setA, violation.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BulkLoad(fx.rel); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{setA.Fingerprint(): true, setB.Fingerprint(): true}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 40; i++ {
			set := setA
			if i%2 == 0 {
				set = setB
			}
			if _, err := eng.SwapRules(context.Background(), set); err != nil {
				errs <- err.Error()
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if fp := eng.RuleSet().Fingerprint(); !known[fp] {
					errs <- "reader saw a rule set that was never installed: " + fp
					return
				}
				rep := eng.Report()
				if rep.RulesChecked != 2 && rep.RulesChecked != 6 {
					errs <- "reader saw a half-swapped rule count"
					return
				}
				seen := rules.Of(eng.Rules()...).Fingerprint()
				if !known[seen] {
					errs <- "Rules() returned a mix of two sets"
					return
				}
				_, _ = eng.TupleViolations(0)
				_ = eng.Dirty()
				// The live-index reads share the read lock with each other:
				// none of them may write to an index.
				_ = eng.Suspects()
				if n := len(eng.RuleStats()); n != 2 && n != 6 {
					errs <- "RuleStats covers a half-swapped rule count"
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}
