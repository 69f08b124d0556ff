// Package discovery exposes the CFD discovery algorithms of the paper behind
// one engine: CFDMiner for constant CFDs (§3), CTANE (§4) and FastCFD /
// NaiveFast (§5) for general CFDs, plus the classical FD baselines TANE and
// FastFD they extend, and a brute-force oracle for testing.
//
// # The streaming engine
//
// Engine is the primary API. It binds an algorithm to a *cfd.Relation under
// functional options and runs one loop — the miner, on the caller's
// goroutine, handing out each rule as it finds it — that can be read two
// ways:
//
//	eng := discovery.NewEngine(discovery.AlgCTANE, rel,
//	    discovery.WithSupport(10), discovery.WithWorkers(8))
//
//	// Collected: the full cover as a *rules.Set with provenance.
//	set, err := eng.Run(ctx)
//
//	// Streaming: rules arrive as the miners find them; breaking the loop
//	// (or WithLimit) cancels the remaining mining work.
//	for rule, err := range eng.Stream(ctx) { ... }
//
// Run is that loop appended to a slice, sorted and deduplicated; Stream is
// the loop itself, which is what makes early-termination workloads cheap:
// CTANE emits each lattice level as it is validated, CFDMiner each free item
// set's rules, FastCFD/NaiveFast the constant cover and then each
// right-hand-side attribute's search. A consumer that stops after the first k
// rules skips the deep lattice levels and remaining attribute searches
// entirely. All runs are parallel by default (WithWorkers(0) = one worker per
// CPU) and the emitted sequence is byte-identical for every worker count.
//
// Run returns a *rules.Set — the rule-set currency shared with repro/rules,
// repro/violation, repro/cleaning and cmd/cfdserve — carrying the run's
// provenance (algorithm, support, relation shape, elapsed time).
package discovery
