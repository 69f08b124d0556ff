package discovery

import (
	"context"
	"fmt"
	"iter"
	"time"

	"repro/cfd"
	"repro/internal/bruteforce"
	"repro/internal/cfdminer"
	"repro/internal/core"
	"repro/internal/ctane"
	"repro/internal/diffset"
	"repro/internal/fastcfd"
	"repro/internal/fastfd"
	"repro/internal/tane"
	"repro/rules"
)

// Engine binds one discovery algorithm to one relation and exposes the run —
// one synchronous loop over the rules the miner emits — both as a stream
// (Stream, rules arriving as the miners find them) and as a collected rule
// set (Run). Configure it with functional options:
//
//	eng := discovery.NewEngine(discovery.AlgCTANE, rel,
//	    discovery.WithSupport(10),
//	    discovery.WithWorkers(8),
//	    discovery.WithLimit(25))
//	for rule, err := range eng.Stream(ctx) { ... }
//
// An Engine is immutable after construction and may be reused for several
// runs.
type Engine struct {
	alg Algorithm
	rel *cfd.Relation
	cfg engineConfig
}

type engineConfig struct {
	support      int
	maxLHS       int
	workers      int
	limit        int
	progress     func(found int)
	variableOnly bool
	noItemsetOpt bool
}

func (c engineConfig) supportOrOne() int {
	if c.support < 1 {
		return 1
	}
	return c.support
}

// Option configures an Engine.
type Option func(*engineConfig)

// WithSupport sets the support threshold k: only k-frequent CFDs are
// reported. Values below 1 are treated as 1. Ignored by the FD baselines.
func WithSupport(k int) Option { return func(c *engineConfig) { c.support = k } }

// WithMaxLHS bounds the number of attributes on the left-hand side of
// reported CFDs (CFDMiner, CTANE, FastCFD and NaiveFast; the FD baselines and
// the brute-force oracle ignore it). Zero means unbounded.
func WithMaxLHS(n int) Option { return func(c *engineConfig) { c.maxLHS = n } }

// WithWorkers bounds the number of goroutines a run may use: 0 runs one
// worker per available CPU (the default), 1 runs sequentially. The discovered
// cover — and the emitted stream — is identical for every worker count.
func WithWorkers(n int) Option { return func(c *engineConfig) { c.workers = n } }

// WithLimit stops the stream after the first n rules: remaining mining work
// is cancelled instead of running to the full cover, which is what makes
// top-k and interactive workloads cheap. Zero means unlimited. Run honours
// the limit too.
func WithLimit(n int) Option { return func(c *engineConfig) { c.limit = n } }

// WithProgress registers a callback invoked after every streamed rule with
// the cumulative number of rules seen so far.
//
// Invocations are guaranteed serial regardless of WithWorkers: parallel
// miners hand their results to a single reordering consumer (internal/pool)
// on the goroutine that called Run or Stream, and the callback fires there,
// after each rule is collected or yielded, so calls never overlap and found
// only ever increases by one. Callers may therefore use a plain (non-atomic)
// counter from the callback — but it runs on the hot emit path, so keep it
// cheap.
func WithProgress(fn func(found int)) Option { return func(c *engineConfig) { c.progress = fn } }

// WithVariableOnly suppresses constant CFDs, whichever algorithm runs — the
// paper uses this split when reporting CFD counts. Rules with a constant
// right-hand side are dropped as the miner emits them (CFDMiner yields none);
// FastCFD and NaiveFast also skip the work of finding them.
func WithVariableOnly(v bool) Option { return func(c *engineConfig) { c.variableOnly = v } }

// WithoutItemsetOptimisation turns off FastCFD's §5.5 optimisation of taking
// constant CFDs from CFDMiner, producing them inside FindMin instead.
func WithoutItemsetOptimisation() Option { return func(c *engineConfig) { c.noItemsetOpt = true } }

// NewEngine builds an engine running alg over rel under the given options.
func NewEngine(alg Algorithm, rel *cfd.Relation, opts ...Option) *Engine {
	e := &Engine{alg: alg, rel: rel}
	for _, opt := range opts {
		opt(&e.cfg)
	}
	return e
}

// mine dispatches to the algorithm implementations, every one of the same
// shape: rules leave a miner only through emit, on the calling goroutine —
// CTANE per lattice level, CFDMiner per free item set, FastCFD/NaiveFast per
// right-hand-side attribute, the FD baselines and the brute-force oracle
// their sorted cover once complete.
func (e *Engine) mine(ctx context.Context, emit func(core.CFD)) error {
	r := e.rel.Encoded()
	k := e.cfg.supportOrOne()
	switch e.alg {
	case AlgCFDMiner:
		return cfdminer.MineContext(ctx, r, cfdminer.Options{
			K:       k,
			MaxLHS:  e.cfg.maxLHS,
			Workers: e.cfg.workers,
		}, emit)
	case AlgCTANE:
		return ctane.MineContext(ctx, r, ctane.Options{
			K:       k,
			MaxLHS:  e.cfg.maxLHS,
			Workers: e.cfg.workers,
		}, emit)
	case AlgFastCFD:
		return fastcfd.MineContext(ctx, r, fastcfd.Options{
			K:            k,
			MaxLHS:       e.cfg.maxLHS,
			VariableOnly: e.cfg.variableOnly,
			UseCFDMiner:  !e.cfg.noItemsetOpt,
			Workers:      e.cfg.workers,
		}, emit)
	case AlgNaiveFast:
		return fastcfd.MineContext(ctx, r, fastcfd.Options{
			K:            k,
			MaxLHS:       e.cfg.maxLHS,
			VariableOnly: e.cfg.variableOnly,
			Computer:     diffset.NewNaive(r),
			UseCFDMiner:  false,
			Workers:      e.cfg.workers,
		}, emit)
	case AlgTANE:
		return tane.MineContext(ctx, r, emit)
	case AlgFastFD:
		return fastfd.MineContext(ctx, r, nil, emit)
	case AlgBrute:
		return bruteforce.MineContext(ctx, r, k, emit)
	default:
		return fmt.Errorf("discovery: unknown algorithm %q", e.alg)
	}
}

// each is the one loop under Run and Stream: it mines on the calling
// goroutine and hands fn every rule in emission order, then reports progress.
// Once fn returns false or the WithLimit bound is reached it cancels the
// remaining mining work and drops whatever the miner still emits on its way
// out; the miner's context.Canceled is then this stop's own doing and is not
// an error, whereas a run the caller's context cut short returns ctx.Err().
func (e *Engine) each(ctx context.Context, fn func(core.CFD) bool) error {
	mctx, cancel := context.WithCancel(ctx)
	defer cancel()
	found, stopped := 0, false
	stop := func() {
		stopped = true
		cancel()
	}
	err := e.mine(mctx, func(c core.CFD) {
		if stopped || (e.cfg.variableOnly && !c.IsVariable()) {
			return
		}
		if !fn(c) {
			stop()
			return
		}
		found++
		if e.cfg.progress != nil {
			e.cfg.progress(found)
		}
		if found == e.cfg.limit {
			stop()
		}
	})
	if stopped {
		return nil
	}
	return err
}

// Stream runs the algorithm and yields rules as the miners find them: CTANE
// emits each lattice level as it is validated, CFDMiner each free item set's
// rules, FastCFD and NaiveFast the constant cover followed by each
// right-hand-side attribute's variable CFDs. The FD baselines and the
// brute-force oracle have no incremental structure and emit their cover only
// once complete.
//
// The miner runs on the caller's goroutine, inside the loop: breaking out of
// it — or reaching the WithLimit bound — cancels the remaining mining work,
// and Stream returns once the miner has, so an abandoned stream leaks nothing.
// A mining failure (context cancellation included) is yielded as the final
// element's error. The yielded sequence is deterministic: identical for
// every worker count.
//
// Collecting an unlimited stream yields exactly the cover of Run (up to
// order, which the stream derives from the miners' traversal rather than the
// canonical sort).
func (e *Engine) Stream(ctx context.Context) iter.Seq2[cfd.CFD, error] {
	return func(yield func(cfd.CFD, error) bool) {
		err := e.each(ctx, func(c core.CFD) bool { return yield(cfd.Decode(e.rel, c), nil) })
		if err != nil {
			yield(cfd.CFD{}, err)
		}
	}
}

// Run collects the same sequence into a rules.Set carrying the run's
// provenance: the cover canonically sorted, or with
// WithLimit the first rules of the stream. Cancellation is cooperative — the
// levelwise algorithms observe it between the work units of a lattice level,
// the depth-first ones between per-attribute searches — and a cancelled run
// returns ctx.Err().
func (e *Engine) Run(ctx context.Context) (*rules.Set, error) {
	start := time.Now()
	var collected []cfd.CFD
	err := e.each(ctx, func(c core.CFD) bool {
		collected = append(collected, cfd.Decode(e.rel, c))
		return true
	})
	if err != nil {
		return nil, err
	}
	// rules.New drops any duplicate the miners emitted (they emit none).
	cfd.SortCFDs(collected)
	return rules.New(collected, rules.Provenance{
		Algorithm:  string(e.alg),
		Support:    e.cfg.supportOrOne(),
		Tuples:     e.rel.Size(),
		Attributes: e.rel.Arity(),
		Elapsed:    time.Since(start),
	}), nil
}
