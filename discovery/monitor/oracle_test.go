package monitor

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/cfd"
	"repro/discovery"
	"repro/rules"
	"repro/violation"
)

// TestMaintenanceOracle is the end-to-end leg of the oracle harness: a real
// violation.Engine under seeded churn, with this package deciding when to
// remine (bounded discovery over the live relation) and swap. After every
// step the engine's counter-derived RuleStats and its dirty-tuple union are
// checked against a naive full recomputation over the model rows — across
// whatever rule set the maintenance loop has swapped in by then.
func TestMaintenanceOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("seeded churn loop")
	}
	for _, seed := range []int64{3, 17} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runMaintenanceOracle(t, seed)
		})
	}
}

func runMaintenanceOracle(t *testing.T, seed int64) {
	attrs := []string{"A", "B", "C", "D"}
	rng := rand.New(rand.NewSource(seed))
	// D is a function of A with ~10% noise, so the miners find real rules
	// and churn genuinely moves support and confidence around.
	genRow := func() []string {
		a := rng.Intn(3)
		d := "d" + strconv.Itoa(a)
		if rng.Intn(10) == 0 {
			d = "d" + strconv.Itoa(rng.Intn(3))
		}
		return []string{
			strconv.Itoa(a), "b" + strconv.Itoa(rng.Intn(4)),
			"c" + strconv.Itoa(rng.Intn(2)), d,
		}
	}
	rows := make([][]string, 60)
	for i := range rows {
		rows[i] = genRow()
	}
	rel, err := cfd.FromRows(attrs, rows)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mine := func(r *cfd.Relation) []cfd.CFD {
		set, err := discovery.NewEngine(discovery.AlgFastCFD, r,
			discovery.WithSupport(5), discovery.WithMaxLHS(2), discovery.WithLimit(64)).Run(ctx)
		if err != nil {
			t.Fatalf("mine: %v", err)
		}
		return set.CFDs()
	}
	eng, err := violation.New(attrs, rules.Of(mine(rel)...), violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BulkLoad(rel); err != nil {
		t.Fatal(err)
	}
	model := make(map[int][]string, len(rows))
	for i, r := range rows {
		model[i] = r
	}
	nextID := len(rows)

	remines := 0
	m := New(eng, Policy{MaxSupportDrift: 0.4, MinConfidence: 0.7, MinSupport: 4},
		func(ctx context.Context, _ Trigger) error {
			live, _, err := eng.Relation()
			if err != nil {
				return err
			}
			if live.Size() == 0 {
				return nil
			}
			if _, err := eng.SwapRules(ctx, rules.Of(mine(live)...)); err != nil {
				return err
			}
			remines++
			return nil
		})

	for step := 0; step < 120; step++ {
		desc := churnStep(t, rng, eng, model, &nextID, genRow)
		if tr := m.Check(); tr != nil {
			if err := m.Fire(ctx, *tr); err != nil {
				t.Fatalf("seed %d step %d (%s): remine: %v", seed, step, desc, err)
			}
		}
		verifyAgainstModel(t, eng, model, attrs, fmt.Sprintf("seed %d step %d (%s)", seed, step, desc))
	}
	if remines == 0 {
		t.Fatal("churn never triggered a remine; the policy leg went untested")
	}
	if st := m.Status(); st.Triggers == 0 || st.LastError != "" {
		t.Fatalf("final status %+v", st)
	}
}

// churnStep applies one random mutation to engine and model.
func churnStep(t *testing.T, rng *rand.Rand, eng *violation.Engine, model map[int][]string, nextID *int, genRow func() []string) string {
	t.Helper()
	live := make([]int, 0, len(model))
	for id := range model {
		live = append(live, id)
	}
	switch k := rng.Intn(10); {
	case k < 5 || len(live) == 0:
		vals := genRow()
		id, err := eng.Insert(vals...)
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		if id != *nextID {
			t.Fatalf("insert id %d, model expects %d", id, *nextID)
		}
		model[id] = vals
		*nextID++
		return fmt.Sprintf("insert %d", id)
	case k < 8:
		id := live[rng.Intn(len(live))]
		vals := genRow()
		if err := eng.Update(id, vals...); err != nil {
			t.Fatalf("update %d: %v", id, err)
		}
		model[id] = vals
		return fmt.Sprintf("update %d", id)
	default:
		id := live[rng.Intn(len(live))]
		if err := eng.Delete(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		delete(model, id)
		return fmt.Sprintf("delete %d", id)
	}
}

// verifyAgainstModel recomputes every served rule's support, groups,
// violating count and the dirty-tuple union from scratch over the model
// rows and compares them to the engine's counter-derived answers.
func verifyAgainstModel(t *testing.T, eng *violation.Engine, model map[int][]string, attrs []string, ctx string) {
	t.Helper()
	idx := make(map[string]int, len(attrs))
	for i, a := range attrs {
		idx[a] = i
	}
	stats := eng.RuleStats()
	served := eng.Rules()
	if len(stats) != len(served) {
		t.Fatalf("%s: %d stats for %d rules", ctx, len(stats), len(served))
	}
	dirtyUnion := make(map[int]bool)
	for i, r := range served {
		support, groups, violating := naiveRuleStats(model, idx, r, dirtyUnion)
		conf := 1.0
		if support > 0 {
			conf = float64(support-violating) / float64(support)
		}
		s := stats[i]
		if !s.Rule.Equal(r) {
			t.Fatalf("%s: stats[%d] is %s, served order says %s", ctx, i, s.Rule, r)
		}
		if s.Support != support || s.Groups != groups || s.Violating != violating || s.Confidence != conf {
			t.Fatalf("%s: %s counters {support %d, groups %d, violating %d, conf %g}, naive {%d, %d, %d, %g}",
				ctx, r, s.Support, s.Groups, s.Violating, s.Confidence, support, groups, violating, conf)
		}
	}
	rep := eng.Report()
	got := make(map[int]bool, len(rep.DirtyTuples))
	for _, id := range rep.DirtyTuples {
		got[id] = true
	}
	if len(got) != len(dirtyUnion) {
		t.Fatalf("%s: engine dirty union %v, naive %v", ctx, rep.DirtyTuples, dirtyUnion)
	}
	for id := range dirtyUnion {
		if !got[id] {
			t.Fatalf("%s: naive dirty id %d missing from engine union %v", ctx, id, rep.DirtyTuples)
		}
	}
}

// naiveRuleStats recomputes one rule's statistics by full scan: group the
// LHS-matching rows on their LHS values, then apply the paper's group
// semantics — a group violates when it disagrees on the RHS, or, for a
// constant-RHS rule, when any member misses the constant; every member of a
// violating group counts as violating.
func naiveRuleStats(model map[int][]string, idx map[string]int, r cfd.CFD, dirtyUnion map[int]bool) (support, groups, violating int) {
	type group struct {
		ids []int
		rhs map[string]int
	}
	byKey := make(map[string]*group)
	for id, row := range model {
		match := true
		key := make([]string, len(r.LHS))
		for j, a := range r.LHS {
			v := row[idx[a]]
			if p := r.LHSPattern[j]; p != cfd.Wildcard && v != p {
				match = false
				break
			}
			key[j] = v
		}
		if !match {
			continue
		}
		support++
		k := fmt.Sprintf("%q", key)
		g := byKey[k]
		if g == nil {
			g = &group{rhs: make(map[string]int)}
			byKey[k] = g
		}
		g.ids = append(g.ids, id)
		g.rhs[row[idx[r.RHS]]]++
	}
	groups = len(byKey)
	for _, g := range byKey {
		bad := len(g.rhs) > 1 ||
			(r.RHSPattern != cfd.Wildcard && g.rhs[r.RHSPattern] < len(g.ids))
		if !bad {
			continue
		}
		violating += len(g.ids)
		for _, id := range g.ids {
			dirtyUnion[id] = true
		}
	}
	return support, groups, violating
}
