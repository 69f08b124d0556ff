package discovery_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/cfd"
	"repro/dataset"
	"repro/discovery"
)

// collect drains a stream, failing the test on any yielded error.
func collect(t *testing.T, eng *discovery.Engine) []cfd.CFD {
	t.Helper()
	var out []cfd.CFD
	for c, err := range eng.Stream(context.Background()) {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		out = append(out, c)
	}
	return out
}

// sortedText renders rules canonically for byte-level comparison.
func sortedText(cfds []cfd.CFD) string {
	sorted := append([]cfd.CFD(nil), cfds...)
	cfd.SortCFDs(sorted)
	return cfd.FormatAll(sorted)
}

// TestStreamMatchesDiscover is the streaming-parity harness: for every
// algorithm, collecting Stream with no limit must produce, at every worker
// count, the rule file of an unlimited Run — itself the same at every worker
// count.
func TestStreamMatchesDiscover(t *testing.T) {
	gen, err := dataset.Tax(dataset.TaxConfig{Size: 400, Arity: 7, CF: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rels := map[string]*relAndSupport{
		"cust": {cust(), 2},
		"tax":  {gen, 4},
	}
	for name, rs := range rels {
		for _, alg := range discovery.Algorithms() {
			if name == "tax" && alg == discovery.AlgBrute {
				continue // the oracle is for tiny inputs only
			}
			batch := mine(t, alg, rs.rel, discovery.WithSupport(rs.k))
			want := sortedText(batch.CFDs())
			for _, workers := range []int{1, 4} {
				eng := discovery.NewEngine(alg, rs.rel,
					discovery.WithSupport(rs.k), discovery.WithWorkers(workers))
				if got := sortedText(collect(t, eng)); got != want {
					t.Errorf("%s/%s workers=%d: stream disagrees with Run\nstream:\n%s\nbatch:\n%s", name, alg, workers, got, want)
				}
				set, err := eng.Run(context.Background())
				if err != nil {
					t.Fatalf("%s/%s workers=%d: Run: %v", name, alg, workers, err)
				}
				if got := sortedText(set.CFDs()); got != want {
					t.Errorf("%s/%s workers=%d: Run disagrees with Run at the default worker count", name, alg, workers)
				}
				if set.Constant() != batch.Constant() || set.Variable() != batch.Variable() {
					t.Errorf("%s/%s workers=%d: class counts (%d, %d) vs (%d, %d)",
						name, alg, workers, set.Constant(), set.Variable(), batch.Constant(), batch.Variable())
				}
			}
		}
	}
}

// TestStreamDeterministicOrder asserts the stronger per-element property: the
// stream's emission order (not just its contents) is identical for every
// worker count.
func TestStreamDeterministicOrder(t *testing.T) {
	gen, err := dataset.Tax(dataset.TaxConfig{Size: 400, Arity: 7, CF: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []discovery.Algorithm{
		discovery.AlgCFDMiner, discovery.AlgCTANE, discovery.AlgFastCFD, discovery.AlgNaiveFast,
	} {
		seq := collect(t, discovery.NewEngine(alg, gen, discovery.WithSupport(4), discovery.WithWorkers(1)))
		par := collect(t, discovery.NewEngine(alg, gen, discovery.WithSupport(4), discovery.WithWorkers(4)))
		if len(seq) != len(par) {
			t.Errorf("%s: sequential stream has %d rules, parallel %d", alg, len(seq), len(par))
			continue
		}
		for i := range seq {
			if !seq[i].Equal(par[i]) {
				t.Errorf("%s: stream position %d differs between worker counts: %s vs %s", alg, i, seq[i], par[i])
				break
			}
		}
	}
}

// TestStreamLimitAndProgress checks WithLimit truncation, the progress
// callback, and that the limited prefix equals the unlimited stream's prefix.
func TestStreamLimitAndProgress(t *testing.T) {
	r := cust()
	full := collect(t, discovery.NewEngine(discovery.AlgCTANE, r, discovery.WithSupport(2)))
	if len(full) < 5 {
		t.Fatalf("need at least 5 rules on cust, got %d", len(full))
	}
	var seen []int
	eng := discovery.NewEngine(discovery.AlgCTANE, r,
		discovery.WithSupport(2),
		discovery.WithLimit(3),
		discovery.WithProgress(func(found int) { seen = append(seen, found) }))
	got := collect(t, eng)
	if len(got) != 3 {
		t.Fatalf("limited stream yielded %d rules, want 3", len(got))
	}
	for i := range got {
		if !got[i].Equal(full[i]) {
			t.Errorf("limited stream position %d = %s, unlimited has %s", i, got[i], full[i])
		}
	}
	if len(seen) != 3 || seen[0] != 1 || seen[2] != 3 {
		t.Errorf("progress callbacks = %v, want [1 2 3]", seen)
	}
	// Run honours the limit too.
	set, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 {
		t.Errorf("limited Run collected %d rules, want 3", set.Len())
	}
}

// TestStreamErrors checks error delivery: unknown algorithms and cancelled
// contexts surface as the stream's final yielded error.
func TestStreamErrors(t *testing.T) {
	r := cust()
	var streamErr error
	for _, err := range discovery.NewEngine("nope", r).Stream(context.Background()) {
		streamErr = err
	}
	if streamErr == nil {
		t.Error("unknown algorithm must yield an error")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	streamErr = nil
	n := 0
	for _, err := range discovery.NewEngine(discovery.AlgCTANE, r, discovery.WithSupport(2)).Stream(ctx) {
		if err != nil {
			streamErr = err
		} else {
			n++
		}
	}
	if !errors.Is(streamErr, context.Canceled) {
		t.Errorf("pre-cancelled stream error = %v, want context.Canceled", streamErr)
	}
	if n != 0 {
		t.Errorf("pre-cancelled stream yielded %d rules", n)
	}
}

// TestStreamCancelMidStreamNoGoroutineLeak breaks out of streams over a
// non-trivial mine (forcing cancellation of in-flight internal/pool workers)
// and asserts every miner goroutine shuts down: Stream's contract is that it
// returns only after the mining goroutine has wound down.
func TestStreamCancelMidStreamNoGoroutineLeak(t *testing.T) {
	gen, err := dataset.Tax(dataset.TaxConfig{Size: 2000, Arity: 8, CF: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for _, alg := range []discovery.Algorithm{
		discovery.AlgCFDMiner, discovery.AlgCTANE, discovery.AlgFastCFD,
	} {
		for i := 0; i < 3; i++ {
			eng := discovery.NewEngine(alg, gen, discovery.WithSupport(4), discovery.WithWorkers(4))
			for _, err := range eng.Stream(context.Background()) {
				if err != nil {
					t.Fatalf("%s: %v", alg, err)
				}
				break // abandon the stream after the first rule
			}
		}
	}
	// The pool goroutines exit after their in-flight item; give the runtime a
	// moment to reap them before comparing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after abandoned streams", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestProgressSerialInvocation pins the WithProgress contract: however many
// workers the run uses, the callback is never invoked concurrently and the
// cumulative count advances by exactly one per call — so callers (cfdserve's
// rules-streamed counter among them) may keep plain, unsynchronised state in
// the callback.
func TestProgressSerialInvocation(t *testing.T) {
	gen, err := dataset.Tax(dataset.TaxConfig{Size: 300, Arity: 7, CF: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []discovery.Algorithm{
		discovery.AlgCFDMiner, discovery.AlgCTANE, discovery.AlgFastCFD,
	} {
		var inFlight atomic.Int32
		overlaps := 0
		calls := 0
		eng := discovery.NewEngine(alg, gen,
			discovery.WithSupport(4), discovery.WithWorkers(8),
			discovery.WithProgress(func(found int) {
				if !inFlight.CompareAndSwap(0, 1) {
					overlaps++
				}
				calls++ // plain int: the race detector flags any overlap too
				if found != calls {
					t.Errorf("%s: progress(found=%d) on call %d, want strictly +1 steps", alg, found, calls)
				}
				inFlight.Store(0)
			}))
		set, err := eng.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if overlaps != 0 {
			t.Fatalf("%s: %d overlapping progress invocations", alg, overlaps)
		}
		if calls == 0 || calls < set.Len() {
			t.Fatalf("%s: %d progress calls for %d rules", alg, calls, set.Len())
		}
	}
}
