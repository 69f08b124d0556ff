package fastcfd

import (
	"context"
	"maps"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diffset"
	"repro/internal/fixture"
	"repro/internal/itemset"
)

// variableCFDPerCover is Step 3.b as it ran before the sub-patterns'
// difference sets were kept per (free set, right-hand side) and read from the
// run's table: check (b2) asks the backend again for every cover.
func variableCFDPerCover(f *finder, comp diffset.Computer, fs *itemset.FreeSet, rhs int, diffs []core.AttrSet, y core.AttrSet) (core.CFD, bool) {
	if !diffset.IsMinimalCover(y, diffs) {
		return core.CFD{}, false
	}
	upgradable := false
	fs.Attrs.ImmediateSubsets(func(b int, sub core.AttrSet) bool {
		upgradable = diffset.Covers(y.Add(b), diffset.Restrict(comp.DiffSets(sub, fs.Tp), rhs))
		return !upgradable
	})
	if upgradable {
		return core.CFD{}, false
	}
	tp := core.NewPattern(f.r.Arity())
	fs.Attrs.ForEach(func(a int) { tp[a] = fs.Tp[a] })
	return core.CFD{LHS: fs.Attrs.Union(y), RHS: rhs, Tp: tp}, true
}

// TestVariableCFDSubDiffsHoisted holds the verdict of variableCFD — which
// restricts the sub-patterns' difference sets from the run's table once per
// search and reuses them for every cover — to the per-cover computation, for FastCFD's and
// NaiveFast's backend, on every free set, right-hand side and minimal cover Y
// of the fixtures — the Ys diffset.MinimalCovers hands it — all Ys of one
// search in a row.
func TestVariableCFDSubDiffsHoisted(t *testing.T) {
	rels := smallRelations()
	rels["cust"] = fixture.Cust()
	for name, r := range rels {
		for _, k := range []int{1, 2, 3} {
			for bname, backend := range map[string]diffset.Computer{"closed": nil, "naive": diffset.NewNaive(r)} {
				mining, comp, err := minePrelude(context.Background(), r, k, backend, 1)
				if err != nil {
					t.Fatal(err)
				}
				f, err := newFinder(context.Background(), r, Options{K: k, Workers: 1}, mining, comp)
				if err != nil {
					t.Fatal(err)
				}
				emitted := 0
				for _, fs := range f.free {
					for rhs := 0; rhs < r.Arity(); rhs++ {
						if fs.Attrs.Has(rhs) {
							continue
						}
						s := search{finder: f, rhs: rhs, fs: fs, diffs: f.minimalDiffSets(fs.Attrs, fs.Tp, rhs)}
						diffset.MinimalCovers(s.diffs, r.Schema().All().Diff(fs.Attrs).Remove(rhs).Attrs(), -1, func(y core.AttrSet) {
							before := len(s.out)
							s.variableCFD(y)
							want, ok := variableCFDPerCover(f, comp, fs, rhs, s.diffs, y)
							switch {
							case ok != (len(s.out) > before):
								t.Errorf("%s k=%d %s: X=%v A=%d Y=%v: emitted %v, per-cover check says %v", name, k, bname, fs.Attrs, rhs, y, !ok, ok)
							case ok && s.out[before].Key() != want.Key():
								t.Errorf("%s k=%d %s: X=%v A=%d Y=%v: emitted %s, want %s", name, k, bname, fs.Attrs, rhs, y, s.out[before].Format(r), want.Format(r))
							}
						})
						emitted += len(s.out)
					}
				}
				if emitted == 0 {
					t.Errorf("%s k=%d %s: no variable CFD passed the checks; the comparison is vacuous", name, k, bname)
				}
			}
		}
	}
}

// countingComputer counts the DiffSets calls a run makes, per pattern.
type countingComputer struct {
	diffset.Computer
	mu    sync.Mutex
	calls map[string]int
}

func (c *countingComputer) DiffSets(attrs core.AttrSet, tp core.Pattern) []core.AttrSet {
	c.mu.Lock()
	c.calls[tp.Key(attrs)]++
	c.mu.Unlock()
	return c.Computer.DiffSets(attrs, tp)
}

// TestDiffSetsOncePerFreePattern requires a run to ask its backend for
// D(r_tp) exactly once per free pattern its searches visit — every k-frequent
// free set smaller than the arity, within MaxLHS when that is set — and for
// nothing else, whatever the worker count: check (b2)'s sub-patterns are
// free patterns of the same run, and no two searches compute one pattern.
func TestDiffSetsOncePerFreePattern(t *testing.T) {
	rels := map[string]*core.Relation{
		"cust":   fixture.Cust(),
		"random": fixture.Random(7, 300, []int{3, 4, 6, 2, 5, 8}),
	}
	for name, r := range rels {
		closed, err := diffset.NewClosed(context.Background(), r, 1)
		if err != nil {
			t.Fatal(err)
		}
		backends := map[string]diffset.Computer{"closed": closed, "naive": diffset.NewNaive(r)}
		for _, k := range []int{2, 5} {
			mining, err := itemset.MineContext(context.Background(), r, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, maxLHS := range []int{0, 2} {
				want := make(map[string]int)
				for _, fs := range mining.Free {
					if fs.Attrs.Len() < r.Arity() && (maxLHS == 0 || fs.Attrs.Len() <= maxLHS) {
						want[fs.Key()] = 1
					}
				}
				for bname, backend := range backends {
					for _, workers := range []int{1, 2, 4} {
						comp := &countingComputer{Computer: backend, calls: make(map[string]int)}
						opts := Options{K: k, Computer: comp, MaxLHS: maxLHS, Workers: workers}
						if err := MineContext(context.Background(), r, opts, func(core.CFD) {}); err != nil {
							t.Fatal(err)
						}
						if !maps.Equal(comp.calls, want) {
							t.Errorf("%s k=%d maxLHS=%d %s workers=%d: %d patterns asked for (%v), want each of the %d searched free patterns once",
								name, k, maxLHS, bname, workers, len(comp.calls), comp.calls, len(want))
						}
					}
				}
			}
		}
	}
}
