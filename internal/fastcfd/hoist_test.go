package fastcfd

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/diffset"
	"repro/internal/fixture"
	"repro/internal/itemset"
)

// variableCFDPerCover is Step 3.b as it ran before the sub-patterns'
// difference sets were kept per (free set, right-hand side): check (b2) asks
// the backend again for every cover.
func variableCFDPerCover(f *finder, fs *itemset.FreeSet, rhs int, diffs []core.AttrSet, y core.AttrSet) (core.CFD, bool) {
	if !diffset.IsMinimalCover(y, diffs) {
		return core.CFD{}, false
	}
	upgradable := false
	fs.Attrs.ImmediateSubsets(func(b int, sub core.AttrSet) bool {
		upgradable = diffset.Covers(y.Add(b), f.comp.MinimalDiffSets(sub, fs.Tp, rhs))
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
// computes the sub-patterns' difference sets once per search and reuses them
// for every cover — to the per-cover computation, for FastCFD's and
// NaiveFast's backend, on every free set, right-hand side and minimal cover Y
// of the fixtures — the Ys diffset.MinimalCovers hands it — all Ys of one
// search in a row.
func TestVariableCFDSubDiffsHoisted(t *testing.T) {
	rels := smallRelations()
	rels["cust"] = fixture.Cust()
	for name, r := range rels {
		for _, k := range []int{1, 2, 3} {
			for bname, comp := range map[string]diffset.Computer{"closed": diffset.NewClosed(r), "naive": diffset.NewNaive(r)} {
				mining, err := minePrelude(context.Background(), r, k, comp, 1)
				if err != nil {
					t.Fatal(err)
				}
				f := &finder{r: r, k: k, comp: comp, mining: mining}
				emitted := 0
				for _, fs := range mining.Free {
					for rhs := 0; rhs < r.Arity(); rhs++ {
						if fs.Attrs.Has(rhs) {
							continue
						}
						s := search{finder: f, rhs: rhs, fs: fs, diffs: comp.MinimalDiffSets(fs.Attrs, fs.Tp, rhs)}
						diffset.MinimalCovers(s.diffs, r.Schema().All().Diff(fs.Attrs).Remove(rhs).Attrs(), -1, func(y core.AttrSet) {
							before := len(s.out)
							s.variableCFD(y)
							want, ok := variableCFDPerCover(f, fs, rhs, s.diffs, y)
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
