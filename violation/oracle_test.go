package violation_test

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/cfd"
	"repro/rules"
	"repro/violation"
)

// oracleModel is the naive reference the engine is checked against after
// every step: the live tuples by id, re-scanned in full through the batch
// detector (cfd.Relation.Violations via naiveDetect) under whatever rule set
// is current.
type oracleModel struct {
	rows   map[int][]string
	nextID int
	set    *rules.Set
	// bursts lists the ids each burst step inserted, for a drain step to take
	// out again.
	bursts [][]int
	// draw, when set, replaces the step generator's base row distribution
	// (made for the cust fixture) with one whose values hit the rule
	// constants of the fixture at hand.
	draw func(rng *rand.Rand, m *oracleModel) []string
}

func (m *oracleModel) liveIDs() []int {
	ids := make([]int, 0, len(m.rows))
	for id := range m.rows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// expected runs the full rescan: one violation entry per violated rule in
// set order, tuples as ascending engine ids.
func (m *oracleModel) expected(t *testing.T, attrs []string) ([]violation.Violation, []int) {
	t.Helper()
	ids := m.liveIDs()
	rowList := make([][]string, len(ids))
	for i, id := range ids {
		rowList[i] = m.rows[id]
	}
	rel, err := cfd.FromRows(attrs, rowList)
	if err != nil {
		t.Fatal(err)
	}
	viols := naiveDetect(t, rel, m.set.CFDs())
	dirty := make(map[int]bool)
	for vi := range viols {
		for ti, tu := range viols[vi].Tuples {
			viols[vi].Tuples[ti] = ids[tu]
			dirty[ids[tu]] = true
		}
	}
	union := make([]int, 0, len(dirty))
	for id := range dirty {
		union = append(union, id)
	}
	sort.Ints(union)
	return viols, union
}

// oracleRulePool returns the candidate rule sets a swap step picks from:
// hand-built subsets of the mixed fixture rules plus sets with rules the
// engine has never seen (forcing fresh index builds over the live tuples).
func oracleRulePool(t testing.TB) []*rules.Set {
	t.Helper()
	full := fixtures(t)[0].rules
	extra := []cfd.CFD{
		cfd.NewFD([]string{"NM"}, "PN"),
		{LHS: []string{"CT"}, RHS: "CC", LHSPattern: []string{"C1"}, RHSPattern: "0"},
		{LHS: []string{"STR", "CT"}, RHS: "ZIP", LHSPattern: []string{"_", "_"}, RHSPattern: "_"},
	}
	return []*rules.Set{
		rules.Of(full...),
		rules.Of(full[:3]...),
		rules.Of(full[3:]...),
		rules.Of(append(append([]cfd.CFD(nil), extra...), full[1])...),
		rules.Of(extra[0], extra[1]),
		rules.Of(), // serve no rules at all for a while
	}
}

// oracleTaxRulePool is the tableau-shaped pool for the tax-discovered fixture,
// cut from its mined cover: many rules on one LHS attribute set with constants
// on either attribute and four different RHS attributes, a hand-made
// constant-RHS rule sharing that set, a second set where
// constant and variable rules sit side by side, a three-attribute LHS (whose
// group keys go through pair folding), and one LHS set held by a single rule —
// so the sets below differ by removing the last rule of an LHS set and adding
// the first, by dropping rules from sets that stay, and by order alone (every
// index reused under a new placement).
func oracleTaxRulePool(t *testing.T) []*rules.Set {
	t.Helper()
	on := func(lhs ...string) []cfd.CFD {
		var out []cfd.CFD
		for _, r := range fixtures(t)[1].rules {
			if slices.Equal(r.LHS, lhs) {
				out = append(out, r)
			}
		}
		if len(out) == 0 {
			t.Fatalf("tax-discovered fixture has no rule on %v", lhs)
		}
		return out
	}
	heavy, ac, zip := on("AC", "NM"), on("AC"), on("ZIP")[:1]
	wide := []cfd.CFD{
		cfd.NewFD([]string{"CC", "AC", "PN"}, "STR"),
		{LHS: []string{"CC", "AC", "PN"}, RHS: "ZIP", LHSPattern: []string{"01", "_", "_"}, RHSPattern: "_"},
	}
	constant := cfd.CFD{LHS: []string{"AC", "NM"}, RHS: "CT", LHSPattern: []string{"A12", "_"}, RHSPattern: "C12"}
	withoutZIP := slices.Concat(heavy, []cfd.CFD{constant}, ac, wide)
	full := slices.Concat(withoutZIP, zip)
	reordered := slices.Clone(full)
	slices.Reverse(reordered)
	return []*rules.Set{
		rules.Of(full...),
		rules.Of(withoutZIP...),
		rules.Of(slices.Concat(heavy[:len(heavy)/2], wide[:1])...),
		rules.Of(reordered...),
		rules.Of(slices.Concat(ac, zip)...),
		rules.Of(),
	}
}

// drawFromLive builds a row the way dirty data arrives: a copy of a live row
// with, mostly, an attribute or two taken from other live rows — so it lands
// in populated groups, under the rules' constants, agreeing with some
// neighbours and not with others.
func drawFromLive(rng *rand.Rand, m *oracleModel) []string {
	live := m.liveIDs()
	values := slices.Clone(m.rows[live[rng.Intn(len(live))]])
	for n := rng.Intn(3); n > 0; n-- {
		a := rng.Intn(len(values))
		values[a] = m.rows[live[rng.Intn(len(live))]][a]
	}
	return values
}

// oracleTricky holds values that stress the dictionary and group-key layers:
// empty strings, lone separators, unicode, and NUL. A joined-string group key
// could not tell some of these apart; packed dictionary codes must.
var oracleTricky = []string{"", " ", "|", "a|b", "b|a", "ünïcode-Ω", "né", "\x00", "💥"}

// oracleCollidingPairs are adjacent-attribute value pairs whose naive string
// join ("a|b"+"c" vs "a"+"b|c") is identical even though the tuples differ.
var oracleCollidingPairs = [][2]string{
	{"a|b", "c"}, {"a", "b|c"}, {"a|b|c", ""}, {"", "a|b|c"}, {"a|", "c"}, {"a", "|c"},
}

// clone copies the model: a fresh row map and burst list over the same
// immutable rows.
func (m *oracleModel) clone() *oracleModel {
	c := *m
	c.rows = maps.Clone(m.rows)
	c.bursts = slices.Clone(m.bursts)
	return &c
}

// apply plays one committed batch onto the model.
func (m *oracleModel) apply(ops []violation.Op) {
	for _, op := range ops {
		switch op.Kind {
		case violation.OpInsert:
			id := m.nextID
			if op.At != nil {
				id = *op.At
			}
			m.rows[id] = op.Values
			m.nextID = max(m.nextID, id+1)
		case violation.OpDelete:
			delete(m.rows, op.ID)
		case violation.OpUpdate:
			m.rows[op.ID] = op.Values
		}
	}
}

// oracleStep applies one random op (insert / pinned insert / delete / update /
// batch / forced tie / burst / drain / swap) to the engine and, commit by
// commit as the engine acknowledges them, to the model. It returns a
// description for failure messages, and the first commit's error, with the
// model holding exactly the commits acknowledged before it.
func oracleStep(t *testing.T, rng *rand.Rand, eng *violation.Engine, m *oracleModel, pool []*rules.Set) (string, error) {
	t.Helper()
	row := func() []string {
		vals := []string{
			strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(5)),
			"N" + strconv.Itoa(rng.Intn(6)), "S" + strconv.Itoa(rng.Intn(4)),
			"C" + strconv.Itoa(rng.Intn(3)), "Z" + strconv.Itoa(rng.Intn(4)),
		}
		if m.draw != nil && len(m.rows) > 0 {
			vals = m.draw(rng, m)
		}
		// Sprinkle hostile values over the base distribution: single tricky
		// values, a high-cardinality tail (every insert a fresh dictionary
		// entry), and join-colliding pairs across adjacent attributes.
		switch rng.Intn(10) {
		case 0:
			vals[rng.Intn(len(vals))] = oracleTricky[rng.Intn(len(oracleTricky))]
		case 1:
			vals[rng.Intn(len(vals))] = "h" + strconv.Itoa(rng.Intn(100000))
		case 2:
			a := rng.Intn(len(vals) - 1)
			p := oracleCollidingPairs[rng.Intn(len(oracleCollidingPairs))]
			vals[a], vals[a+1] = p[0], p[1]
		}
		return vals
	}
	live := m.liveIDs()
	// commit applies one batch and, once the engine acknowledged it, plays it
	// onto the model.
	commit := func(ops []violation.Op) error {
		if _, err := eng.ApplyBatch(ops); err != nil {
			return err
		}
		m.apply(ops)
		return nil
	}
	switch k := rng.Intn(27); {
	case k < 6 || len(live) == 0: // insert
		values := row()
		id, err := eng.Insert(values...)
		if err != nil {
			return "insert", err
		}
		if id != m.nextID {
			t.Fatalf("insert assigned id %d, model expects %d", id, m.nextID)
		}
		m.apply([]violation.Op{{Kind: violation.OpInsert, Values: values}})
		return fmt.Sprintf("insert -> id %d", id), nil
	case k < 7: // pinned insert, skipping up to three ids
		at := m.nextID + rng.Intn(4)
		desc := fmt.Sprintf("insert at %d", at)
		return desc, commit([]violation.Op{{Kind: violation.OpInsert, Values: row(), At: &at}})
	case k < 10: // delete
		id := live[rng.Intn(len(live))]
		return fmt.Sprintf("delete %d", id), commit([]violation.Op{{Kind: violation.OpDelete, ID: id}})
	case k < 13: // update
		id := live[rng.Intn(len(live))]
		return fmt.Sprintf("update %d", id), commit([]violation.Op{{Kind: violation.OpUpdate, ID: id, Values: row()}})
	case k < 16: // atomic batch, including intra-batch id references
		ops := randomOps(rng, 1+rng.Intn(8), live, m.nextID)
		return fmt.Sprintf("batch of %d ops", len(ops)), commit(ops)
	case k < 19: // forced tie: a fresh two-tuple group split 1-1 on one attribute
		// The two tuples agree everywhere but on attribute a, where they hold
		// two hostile values in random first-seen (so dictionary code) order:
		// under any variable rule onto a the repair target is decided by the
		// lexicographic tie-break alone.
		fresh := "tie" + strconv.Itoa(m.nextID)
		a := rng.Intn(7)
		p := rng.Perm(len(oracleTricky))
		ops := make([]violation.Op, 2)
		for i := range ops {
			values := []string{fresh, fresh, fresh, fresh, fresh, fresh, fresh}
			values[a] = oracleTricky[p[i]]
			ops[i] = violation.Op{Kind: violation.OpInsert, Values: values}
		}
		return fmt.Sprintf("tie on attribute %d: %q vs %q", a, oracleTricky[p[0]], oracleTricky[p[1]]), commit(ops)
	case k < 21 || (k < 23 && len(m.bursts) == 0): // burst: grow one row's groups past nine members
		// One batch of near-copies of a base row — a live one, so the copies
		// pile onto populated groups under the rules' constants, or an
		// all-fresh one, so they are alone in theirs — pushes the base row's
		// group under every LHS set from a scanned run of members to a counted
		// group. Every third copy differs on one attribute: it disagrees with
		// the rest where that attribute is a rule's RHS, and sits in another
		// group where it is part of the LHS.
		base := make([]string, 7)
		if rng.Intn(3) > 0 {
			copy(base, m.rows[live[rng.Intn(len(live))]])
		} else {
			for a := range base {
				base[a] = "b" + strconv.Itoa(m.nextID)
			}
		}
		ops := make([]violation.Op, 9+rng.Intn(4))
		var ids []int
		for i := range ops {
			values := slices.Clone(base)
			if rng.Intn(3) == 0 {
				a := rng.Intn(len(values))
				values[a] = m.rows[live[rng.Intn(len(live))]][a]
			}
			ops[i] = violation.Op{Kind: violation.OpInsert, Values: values}
			ids = append(ids, m.nextID+i)
		}
		desc := fmt.Sprintf("burst of %d near-copies of %q", len(ops), base)
		if err := commit(ops); err != nil {
			return desc, err
		}
		m.bursts = append(m.bursts, ids)
		return desc, nil
	case k < 23: // drain: take a whole burst out again
		// Whatever of the burst other steps left alive goes, one delete at a
		// time or as one batch: counted groups shrink back below nine members
		// and, where the burst was alone, to nothing — their slots are then
		// handed to the next newcomers.
		b := rng.Intn(len(m.bursts))
		var ops []violation.Op
		for _, id := range m.bursts[b] {
			if _, ok := m.rows[id]; ok {
				ops = append(ops, violation.Op{Kind: violation.OpDelete, ID: id})
			}
		}
		m.bursts = slices.Delete(m.bursts, b, b+1)
		desc := fmt.Sprintf("drain of %d burst tuples", len(ops))
		if rng.Intn(2) == 0 {
			return desc, commit(ops)
		}
		for _, op := range ops {
			if err := commit([]violation.Op{op}); err != nil {
				return desc, err
			}
		}
		return desc, nil
	default: // live rule swap
		set := pool[rng.Intn(len(pool))]
		delta, err := eng.SwapRules(context.Background(), set)
		if err != nil {
			return "swap", err
		}
		if len(delta.Added)+len(delta.Retained) != set.Len() {
			t.Fatalf("swap delta %v does not cover the new set", delta)
		}
		m.set = set
		return fmt.Sprintf("swap to %d rules (%s)", set.Len(), delta), nil
	}
}

// TestRandomizedOracle drives seeded random op sequences — inserts, deletes,
// updates, atomic batches and live rule swaps — and after every step checks
// the engine's full report against a naive full-rescan oracle over the
// model's live tuples. Under `make race` this doubles as the lifecycle
// stress for the swap path. Reproduce a failure by its seed:
//
//	go test ./violation -run 'TestRandomizedOracle/seed=7'
//
// or point CFD_ORACLE_SEED at any seed to add it to the table.
func TestRandomizedOracle(t *testing.T) {
	seeds := []int64{1, 7, 23, 42}
	if s := os.Getenv("CFD_ORACLE_SEED"); s != "" {
		extra, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CFD_ORACLE_SEED=%q: %v", s, err)
		}
		seeds = append(seeds, extra)
	}
	steps := 140
	if testing.Short() {
		steps = 40
	}
	pool := oracleRulePool(t)
	fx := fixtures(t)[0]
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			startSet := pool[0]
			eng, err := violation.New(fx.rel.Attributes(), startSet, violation.Options{Workers: 1 + int(seed%4)})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.BulkLoad(fx.rel); err != nil {
				t.Fatal(err)
			}
			runOracle(t, seed, steps, eng, pool, fx.rel, nil)
		})
	}
	// The same walk over a tableau-shaped rule set: a slice of the
	// tax-discovered fixture under oracleTaxRulePool, with rows drawn from the
	// live ones so the rules' constants select them. Fewer rows than the
	// fixture holds, because every step's recount is rules x rows.
	taxPool := oracleTaxRulePool(t)
	taxRel := fixtures(t)[1].rel.Head(120)
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("tax-seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			eng, err := violation.New(taxRel.Attributes(), taxPool[0], violation.Options{Workers: 1 + int(seed%4)})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.BulkLoad(taxRel); err != nil {
				t.Fatal(err)
			}
			runOracle(t, seed, steps, eng, taxPool, taxRel, drawFromLive)
		})
	}
}

// TestRandomizedOracleV1Restore runs the same seeded sequences, but against an
// engine restored from a compacted snapshot of the fixture relation instead
// of a fresh bulk load: the restore path must land the engine in a state
// indistinguishable from the bulk-loaded one. (The name predates the removal
// of snapshot format 1, which this test used to restore from; it is kept so
// the test keeps its identity in CI history.)
func TestRandomizedOracleV1Restore(t *testing.T) {
	steps := 140
	if testing.Short() {
		steps = 40
	}
	pool := oracleRulePool(t)
	fx := fixtures(t)[0]
	for _, seed := range []int64{1, 7, 23, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			writeSnapshot(t, dir, fx.rel, pool[0])
			st, err := violation.OpenStore(dir, violation.StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			eng, found, err := st.Load(violation.Options{Workers: 1 + int(seed%4)})
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatal("snapshot not found")
			}
			runOracle(t, seed, steps, eng, pool, fx.rel, nil)
		})
	}
}

// writeSnapshot leaves a compacted snapshot.json holding rel under set in dir.
func writeSnapshot(t *testing.T, dir string, rel *cfd.Relation, set *rules.Set) {
	t.Helper()
	eng, err := violation.New(rel.Attributes(), set, violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BulkLoad(rel); err != nil {
		t.Fatal(err)
	}
	st, err := violation.OpenStore(dir, violation.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(eng); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// runOracle seeds the model from rel (which the engine must already hold),
// then drives steps random ops, checking the engine's full report — and a
// delta-replay client leg, the rule statistics, the relation bridge and the
// repair view — against the naive rescan oracle after every one. draw, when
// non-nil, is the model's row distribution (see oracleModel.draw).
func runOracle(t *testing.T, seed int64, steps int, eng *violation.Engine, pool []*rules.Set, rel *cfd.Relation, draw func(*rand.Rand, *oracleModel) []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	startSet := pool[0]
	m := &oracleModel{rows: make(map[int][]string), nextID: rel.Size(), set: startSet, draw: draw}
	for i := 0; i < rel.Size(); i++ {
		m.rows[i] = rel.Row(i)
	}
	// The delta leg mirrors an API client: hold the previous full
	// report and the rule table it was relative to, and after every
	// step reconstruct the new report from Changes alone.
	prev := eng.Report()
	table := startSet.CFDs()
	for step := 0; step < steps; step++ {
		desc, err := oracleStep(t, rng, eng, m, pool)
		if err != nil {
			t.Fatalf("seed %d step %d (%s): %v", seed, step, desc, err)
		}
		wantViols, wantDirty := m.expected(t, rel.Attributes())
		rep := eng.Report()
		d, err := eng.Changes(prev.Epoch)
		if err != nil {
			t.Fatalf("seed %d step %d (%s): Changes(%d): %v", seed, step, desc, prev.Epoch, err)
		}
		applied := d.Apply(prev, table)
		if applied.Epoch != rep.Epoch || applied.RulesChecked != rep.RulesChecked ||
			!violationsEqual(applied.Violations, rep.Violations) ||
			!sameIDs(applied.DirtyTuples, rep.DirtyTuples) {
			t.Fatalf("seed %d step %d (%s): replaying delta %+v onto the previous report diverges\napplied: %+v\nfresh:   %+v",
				seed, step, desc, d, applied, rep)
		}
		prev = applied
		if d.Rules != nil {
			table = d.Rules
		}
		if rep.RulesChecked != m.set.Len() {
			t.Fatalf("seed %d step %d (%s): engine checks %d rules, oracle %d",
				seed, step, desc, rep.RulesChecked, m.set.Len())
		}
		gotDirty := rep.DirtyTuples
		if len(gotDirty) == 0 {
			gotDirty = nil
		}
		if len(wantDirty) == 0 {
			wantDirty = nil
		}
		if !reflect.DeepEqual(gotDirty, wantDirty) {
			t.Fatalf("seed %d step %d (%s): dirty set\nengine: %v\noracle: %v",
				seed, step, desc, gotDirty, wantDirty)
		}
		if !violationsEqual(rep.Violations, wantViols) {
			t.Fatalf("seed %d step %d (%s): violations\nengine: %v\noracle: %v",
				seed, step, desc, rep.Violations, wantViols)
		}
		if eng.Size() != len(m.rows) {
			t.Fatalf("seed %d step %d (%s): engine size %d, oracle %d",
				seed, step, desc, eng.Size(), len(m.rows))
		}
		ctx := fmt.Sprintf("seed %d step %d (%s)", seed, step, desc)
		checkRuleStats(t, eng, m, rel.Attributes(), wantViols, ctx)
		checkTupleViolations(t, rng, eng, m, wantViols, ctx)
		checkRelationBridge(t, eng, ctx)
		checkRepairs(t, eng, m, rel.Attributes(), wantViols, ctx)
	}
}

// checkTupleViolations holds the per-tuple point read to the naive violation
// list on a handful of live tuples, the newest among them: the rules whose
// entry lists the tuple, in set order.
func checkTupleViolations(t *testing.T, rng *rand.Rand, eng *violation.Engine, m *oracleModel, viols []violation.Violation, ctx string) {
	t.Helper()
	live := m.liveIDs()
	if len(live) == 0 {
		return
	}
	probe := []int{live[len(live)-1]}
	for i := 0; i < 8; i++ {
		probe = append(probe, live[rng.Intn(len(live))])
	}
	for _, id := range probe {
		var want []cfd.CFD
		for _, v := range viols {
			if _, found := slices.BinarySearch(v.Tuples, id); found {
				want = append(want, v.Rule)
			}
		}
		got, err := eng.TupleViolations(id)
		if err != nil || !slices.EqualFunc(got, want, cfd.CFD.Equal) {
			t.Fatalf("%s: TupleViolations(%d) = %v (err %v), naive = %v", ctx, id, got, err, want)
		}
	}
}

// checkRepairs is the differential oracle for the repair view: the engine's
// Repairs and Suspects, read off the live indexes, against referenceRepairs.
func checkRepairs(t *testing.T, eng *violation.Engine, m *oracleModel, attrs []string, viols []violation.Violation, ctx string) {
	t.Helper()
	want := referenceRepairs(m, attrs, viols)
	got := eng.Repairs()
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s: repairs\nengine:    %+v\nreference: %+v", ctx, got, want)
	}
	wantSuspects := []int{}
	for _, rp := range want {
		if n := len(wantSuspects); n == 0 || wantSuspects[n-1] != rp.Tuple {
			wantSuspects = append(wantSuspects, rp.Tuple)
		}
	}
	if gotSuspects := eng.Suspects(); gotSuspects == nil || !slices.Equal(gotSuspects, wantSuspects) {
		t.Fatalf("%s: suspects\nengine:    %v\nreference: %v", ctx, gotSuspects, wantSuspects)
	}
}

// referenceRepairs is the regroup-from-scratch repair algorithm
// cleaning.SuggestRepairs ran before the engine read repairs off its indexes,
// kept as the test-only reference: take the (already verified) naive
// violation list, per violated rule regroup the violating tuples by their
// LHS values, and correct each group to the rule's RHS constant — or, under
// a variable rule, to the most common RHS value of a recount (the
// lexicographically smallest on ties). It works on the model's
// strings, so it shares neither dictionaries nor group keys with the engine.
// Repairs come ordered by tuple id, attribute, rule position.
func referenceRepairs(m *oracleModel, attrs []string, viols []violation.Violation) []violation.Repair {
	idx := make(map[string]int, len(attrs))
	for i, a := range attrs {
		idx[a] = i
	}
	var out []violation.Repair
	for _, v := range viols { // rule order
		rule, rhs := v.Rule, idx[v.Rule.RHS]
		groups := make(map[string][]int)
		for _, id := range v.Tuples {
			key := make([]string, len(rule.LHS))
			for j, a := range rule.LHS {
				key[j] = m.rows[id][idx[a]]
			}
			k := fmt.Sprintf("%q", key)
			groups[k] = append(groups[k], id)
		}
		for _, ids := range groups {
			target := rule.RHSPattern
			if rule.IsVariable() {
				counts := make(map[string]int)
				for _, id := range ids {
					counts[m.rows[id][rhs]]++
				}
				best := 0
				for value, n := range counts {
					if n > best || (n == best && value < target) {
						target, best = value, n
					}
				}
			}
			for _, id := range ids {
				if cur := m.rows[id][rhs]; cur != target {
					out = append(out, violation.Repair{Tuple: id, Attribute: rule.RHS, Current: cur, Suggested: target, Rule: rule})
				}
			}
		}
	}
	// A rule repairs a tuple at most once and rules were visited in order, so
	// the stable sort leaves (tuple, attribute) ties in rule order.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Tuple != out[j].Tuple {
			return out[i].Tuple < out[j].Tuple
		}
		return out[i].Attribute < out[j].Attribute
	})
	return out
}

// checkRelationBridge asserts that Engine.Relation() — an integer recode of
// the engine's relation — equals, dictionaries in order, columns and id map,
// the relation rebuilt the slow way: every live tuple decoded to strings and
// re-interned into fresh dictionaries in ascending id order. The miners'
// output order depends on those codes, so this is what keeps remines
// bit-identical.
func checkRelationBridge(t *testing.T, eng *violation.Engine, ctx string) {
	t.Helper()
	got, gotIDs, err := eng.Relation()
	if err != nil {
		t.Fatalf("%s: Relation: %v", ctx, err)
	}
	tuples, _, _ := eng.Tuples(0, 0)
	want := cfd.MustRelation(eng.Attributes()...)
	wantIDs := make([]int, 0, len(tuples))
	for _, tu := range tuples {
		if err := want.Append(tu.Values...); err != nil {
			t.Fatal(err)
		}
		wantIDs = append(wantIDs, tu.ID)
	}
	if !sameIDs(gotIDs, wantIDs) {
		t.Fatalf("%s: Relation id map\ngot:  %v\nwant: %v", ctx, gotIDs, wantIDs)
	}
	g, w := got.Encoded(), want.Encoded()
	if g.Size() != w.Size() || g.Count() != w.Count() {
		t.Fatalf("%s: Relation has %d slots / %d tuples, reference %d / %d", ctx, g.Size(), g.Count(), w.Size(), w.Count())
	}
	for a := 0; a < w.Arity(); a++ {
		if !slices.Equal(g.Dict(a).Values(), w.Dict(a).Values()) {
			t.Fatalf("%s: Relation attribute %d dictionary\ngot:  %q\nwant: %q", ctx, a, g.Dict(a).Values(), w.Dict(a).Values())
		}
		if !slices.Equal(g.Column(a), w.Column(a)) {
			t.Fatalf("%s: Relation attribute %d column\ngot:  %v\nwant: %v", ctx, a, g.Column(a), w.Column(a))
		}
	}
}

// checkRuleStats asserts that the engine's O(rules) counter-derived RuleStats
// equal a naive recomputation over the model's live rows: support by
// re-matching every row against the LHS pattern, groups by collecting
// distinct LHS-value combinations, violating from the already-verified naive
// violation list.
func checkRuleStats(t *testing.T, eng *violation.Engine, m *oracleModel, attrs []string, viols []violation.Violation, ctx string) {
	t.Helper()
	idx := make(map[string]int, len(attrs))
	for i, a := range attrs {
		idx[a] = i
	}
	got := eng.RuleStats()
	set := m.set.CFDs()
	if len(got) != len(set) {
		t.Fatalf("%s: RuleStats has %d entries, set has %d rules", ctx, len(got), len(set))
	}
	vi := 0
	for i, r := range set {
		support, groups := 0, make(map[string]bool)
		for _, row := range m.rows {
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
			if match {
				support++
				groups[fmt.Sprintf("%q", key)] = true
			}
		}
		violating := 0
		if vi < len(viols) && viols[vi].Rule.Equal(r) {
			violating = len(viols[vi].Tuples)
			vi++
		}
		conf := 1.0
		if support > 0 {
			conf = float64(support-violating) / float64(support)
		}
		s := got[i]
		if !s.Rule.Equal(r) {
			t.Fatalf("%s: RuleStats[%d].Rule = %s, set order says %s", ctx, i, s.Rule, r)
		}
		if s.Support != support || s.Groups != len(groups) || s.Violating != violating || s.Confidence != conf {
			t.Fatalf("%s: RuleStats[%d] for %s = {support %d, groups %d, violating %d, confidence %g}, naive = {%d, %d, %d, %g}",
				ctx, i, r, s.Support, s.Groups, s.Violating, s.Confidence, support, len(groups), violating, conf)
		}
	}
	if vi != len(viols) {
		t.Fatalf("%s: %d naive violation entries not matched to set rules", ctx, len(viols)-vi)
	}
}

// sameIDs compares two ascending id lists, tolerating nil vs empty.
func sameIDs(got, want []int) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	return reflect.DeepEqual(got, want)
}

// violationsEqual compares per-rule violation lists rule by rule, tolerating
// nil-vs-empty slices.
func violationsEqual(got, want []violation.Violation) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !got[i].Rule.Equal(want[i].Rule) {
			return false
		}
		if !reflect.DeepEqual(got[i].Tuples, want[i].Tuples) {
			return false
		}
	}
	return true
}
