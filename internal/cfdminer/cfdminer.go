// Package cfdminer implements CFDMiner (§3 of the paper): discovery of a
// canonical cover of k-frequent, minimal (left-reduced) constant CFDs from the
// k-frequent free and closed item sets of a relation.
//
// The algorithm follows Proposition 1: a constant CFD (X → A, (tp ‖ a)) is
// k-frequent and left-reduced iff (X, tp) is a k-frequent free item set not
// containing (A, a), its closure contains (A, a), and no smaller free item set
// contained in (X, tp) has (A, a) in its closure.
package cfdminer

import (
	"context"

	"repro/internal/core"
	"repro/internal/itemset"
	"repro/internal/pool"
)

// Options configures a CFDMiner run.
type Options struct {
	// K is the support threshold: only k-frequent CFDs are reported. Values
	// below 1 are treated as 1.
	K int
	// MaxLHS, when positive, bounds the size of the left-hand side of reported
	// CFDs: larger free item sets are skipped.
	MaxLHS int
	// Workers bounds the number of goroutines used for the per-free-set rule
	// generation (each free item set's candidate right-hand sides are checked
	// independently against the closures of its subsets). 0 selects one worker
	// per CPU, 1 runs sequentially. The emitted sequence is identical for
	// every worker count.
	Workers int
}

// MineContext hands emit a canonical cover of the k-frequent minimal constant
// CFDs of r. Cancellation is observed inside the item-set mining and between
// free item sets; a cancelled run returns ctx.Err().
func MineContext(ctx context.Context, r *core.Relation, opts Options, emit func(core.CFD)) error {
	m, err := itemset.MineContext(ctx, r, max(opts.K, 1))
	if err != nil {
		return err
	}
	return MineFromItemsets(ctx, m, opts, emit)
}

// MineFromItemsets is MineContext over a precomputed free/closed item-set
// mining result (opts.K is that mining's business and is not read). FastCFD
// uses this entry point to share the mining work between constant-CFD
// discovery and its own pattern pruning. The rules of each free item set are
// handed to emit as they are derived — free sets in the miner's
// ascending-size order, rules in canonical order within each free set; the
// free sets are processed independently, the closure lookups reading only the
// mining result. A cancelled run stops after the in-flight free sets and
// returns ctx.Err().
func MineFromItemsets(ctx context.Context, m *itemset.Mining, opts Options, emit func(core.CFD)) error {
	return pool.Stream(ctx, opts.Workers, len(m.Free),
		func(_, i int) []core.CFD {
			if opts.MaxLHS > 0 && m.Free[i].Attrs.Len() > opts.MaxLHS {
				return nil
			}
			rules := freeSetRules(m, m.Free[i])
			core.SortCFDs(rules)
			return rules
		},
		func(_ int, rules []core.CFD) {
			for _, c := range rules {
				emit(c)
			}
		})
}

// freeSetRules emits the minimal constant CFDs rooted at one free item set:
// one rule per closure item that no proper free subset's closure already
// contains (Proposition 1, condition 3).
//
// The free sets are sorted in ascending size order, so every proper free
// subset of a set is present in the mining result's index.
func freeSetRules(m *itemset.Mining, fs *itemset.FreeSet) []core.CFD {
	arity := m.Relation.Arity()
	closure := fs.Closure
	// Candidate right-hand sides: the items the closure adds to the free set.
	var candidates []itemset.Item
	closure.Attrs.Diff(fs.Attrs).ForEach(func(a int) {
		candidates = append(candidates, itemset.Item{Attr: a, Value: closure.Tp[a]})
	})
	if len(candidates) == 0 {
		return nil
	}
	// Remove every candidate that already appears in the closure of a proper
	// free subset of (X, tp): such a candidate yields a CFD that is not
	// left-reduced (Proposition 1, condition 3).
	surviving := candidates[:0]
	for _, cand := range candidates {
		redundant := false
		fs.Attrs.Subsets(func(sub core.AttrSet) bool {
			if sub == fs.Attrs {
				return true
			}
			subSet, ok := m.LookupFree(sub, fs.Tp)
			if !ok {
				return true
			}
			if subSet.Closure.Has(cand) {
				redundant = true
				return false
			}
			return true
		})
		if !redundant {
			surviving = append(surviving, cand)
		}
	}
	out := make([]core.CFD, 0, len(surviving))
	for _, cand := range surviving {
		tp := core.NewPattern(arity)
		fs.Attrs.ForEach(func(a int) { tp[a] = fs.Tp[a] })
		tp[cand.Attr] = cand.Value
		out = append(out, core.CFD{LHS: fs.Attrs, RHS: cand.Attr, Tp: tp})
	}
	return out
}
