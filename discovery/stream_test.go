package discovery_test

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/cfd"
	"repro/dataset"
	"repro/discovery"
)

var update = flag.Bool("update", false, "rewrite the stream goldens under testdata")

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

// TestStreamDeterministicOrder pins the emission order — the only order a
// miner has, and what WithLimit returns a prefix of. On a generated Tax it is
// the same at every worker count; on cust (Fig. 1) at k = 2 it is the
// committed text of testdata/stream.<algorithm>.golden, captured before the
// miners lost their batch return path, at one worker and at four.
// `go test ./discovery -run TestStreamDeterministicOrder -update` rewrites
// the goldens from the sequential run.
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

		golden := filepath.Join("testdata", "stream."+string(alg)+".golden")
		for _, workers := range []int{1, 4} {
			got := cfd.FormatAll(collect(t, discovery.NewEngine(alg, cust(), discovery.WithSupport(2), discovery.WithWorkers(workers))))
			if *update && workers == 1 {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s workers=%d: stream on cust differs from %s\ngot:\n%swant:\n%s", alg, workers, golden, got, want)
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
// non-trivial mine after their first rule (forcing cancellation of in-flight
// internal/pool workers). The miner runs inside the loop, so Stream returns
// once it has wound down: the body never runs again — the runtime panics on a
// yield after the break — and no goroutine outlives the loop.
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
			yields := 0
			for _, err := range eng.Stream(context.Background()) {
				if err != nil {
					t.Fatalf("%s: %v", alg, err)
				}
				yields++
				break // abandon the stream after the first rule
			}
			if yields != 1 {
				t.Fatalf("%s: loop body ran %d times", alg, yields)
			}
		}
	}
	// The pool's workers have exited by the time its loop returns; give the
	// runtime a moment to reap them before comparing.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after abandoned streams", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunLimitStopsTheMiner holds the stop-by-cancel of the one loop: a
// limited Run returns exactly its limit and no error — the cancellation it
// stopped the miner with is its own and must not surface — in a fraction of
// the time of the full run, while a caller's deadline that fires before the
// limit is reached does surface.
func TestRunLimitStopsTheMiner(t *testing.T) {
	rel, err := dataset.Tax(dataset.TaxConfig{Size: 8000, Arity: 9, CF: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// k = 16: CTANE's tenth rule comes with the second lattice level, a ninth
	// of the way into the run. (At k = 2 it takes level two 15 s to get there.)
	start := time.Now()
	full := mine(t, discovery.AlgCTANE, rel, discovery.WithSupport(16), discovery.WithWorkers(1))
	fullTime := time.Since(start)
	first := keys(collect(t, discovery.NewEngine(discovery.AlgCTANE, rel,
		discovery.WithSupport(16), discovery.WithWorkers(1), discovery.WithLimit(10))))
	for _, workers := range []int{1, 4} {
		start := time.Now()
		set, err := discovery.NewEngine(discovery.AlgCTANE, rel,
			discovery.WithSupport(16), discovery.WithWorkers(workers), discovery.WithLimit(10)).Run(context.Background())
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("workers=%d: limited Run: %v", workers, err)
		}
		if set.Len() != 10 || full.Len() <= 10 {
			t.Fatalf("workers=%d: limited Run collected %d rules of %d, want 10", workers, set.Len(), full.Len())
		}
		for _, c := range set.CFDs() {
			if !first[c.Normalize().String()] {
				t.Errorf("workers=%d: %s is not among the stream's first 10 rules", workers, c)
			}
		}
		if elapsed > fullTime/2 {
			t.Errorf("workers=%d: limited Run took %s, the full run %s", workers, elapsed, fullTime)
		}
	}
	// At k = 2 the deadline fires long before the tenth rule.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = discovery.NewEngine(discovery.AlgCTANE, rel, discovery.WithSupport(2), discovery.WithLimit(10)).Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("limited Run under a deadline that fires first: err = %v, want context.DeadlineExceeded", err)
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
