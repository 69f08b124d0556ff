package violation_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"repro/cfd"
	"repro/rules"
	"repro/violation"
)

// TestFaultScheduleOracle runs the randomized oracle's op sequences — with a
// compaction every eighth step or so — on a durable, fsyncing engine whose
// store sits on a seeded fault schedule (persist_fault_test.go's schedule):
// per disk call kind, the n-th call fails with an error, a short write or a
// crash after it. After every injected failure the serving engine must still
// be the acknowledged commits, and OpenStore + Load over the directory must
// serve exactly the model's replay of them — never a record more (a torn tail
// must not resurrect), never one less. The one commit in doubt is the failed
// one whose record reached the log whole and could not be cut off again (the
// process crashed after writing it, or the disk refused the truncate): its
// client saw an error wrapping ErrInDoubt, recovery replays it, and the model
// expects exactly that. The run then restarts on the reloaded state and goes on under the rest
// of the schedule. A failure names its seed; replay it with
//
//	CFD_ORACLE_SEED=<seed> go test ./violation -run 'TestFaultScheduleOracle/seed=<seed>'
func TestFaultScheduleOracle(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if s := os.Getenv("CFD_ORACLE_SEED"); s != "" {
		extra, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CFD_ORACLE_SEED=%q: %v", s, err)
		}
		seeds = append(seeds, extra)
	}
	steps := 150
	if testing.Short() {
		steps = 40
	}
	rel, pool := fixtures(t)[0].rel, oracleRulePool(t)
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			plan := make([]byte, 21)
			rand.New(rand.NewSource(^seed)).Read(plan)
			if fired := runFaultSchedule(t, seed, plan, steps, rel, pool); len(fired) == 0 {
				t.Logf("seed %d: no fault fired", seed)
			}
		})
	}
}

// FuzzFaultSchedule is the same run over any seed and schedule bytes.
func FuzzFaultSchedule(f *testing.F) {
	// A write that crashes after landing its record (the third byte triple),
	// an fsync failing whose record cannot be cut off again, a compaction
	// failing at each of its steps, and a write landing all of its record but
	// the newline that cannot be cut off either.
	f.Add(int64(1), []byte{3, 3, 0, 3, 3, 0, 5, 2, 0})
	f.Add(int64(2), []byte{3, 3, 0, 3, 3, 0, 3, 3, 0, 0, 0, 0, 1, 0, 0})
	f.Add(int64(3), []byte{3, 3, 0, 0, 0, 0, 7, 1, 40, 3, 3, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0})
	f.Add(int64(4), []byte{0, 3, 0, 0, 3, 0, 0, 1, 255, 0, 3, 0, 1, 0, 0})
	rel, pool := fixtures(f)[0].rel, oracleRulePool(f)
	f.Fuzz(func(t *testing.T, seed int64, plan []byte) {
		runFaultSchedule(t, seed, plan, 40, rel, pool)
	})
}

// faultRun is one durable engine on a fault schedule, and the model of the
// commits it acknowledged.
type faultRun struct {
	t    *testing.T
	dir  string
	disk *violation.FaultDisk
	st   *violation.Store
	log  *ackLog
	eng  *violation.Engine
	m    *oracleModel
	rel  *cfd.Relation
}

// runFaultSchedule drives steps random steps from seed over rel, starting
// from a compacted snapshot of it under pool[0], on a disk failing what plan
// schedules. It returns the faults that fired.
func runFaultSchedule(t *testing.T, seed int64, plan []byte, steps int, rel *cfd.Relation, pool []*rules.Set) []string {
	t.Helper()
	r := &faultRun{t: t, dir: t.TempDir(), disk: violation.NewFaultDisk(plan), rel: rel}
	writeSnapshot(t, r.dir, rel, pool[0])
	r.m = &oracleModel{rows: make(map[int][]string), nextID: rel.Size(), set: pool[0]}
	for i := 0; i < rel.Size(); i++ {
		r.m.rows[i] = rel.Row(i)
	}
	where := func(step int, desc string) string {
		return fmt.Sprintf("seed %d plan %v step %d (%s), faults %q", seed, plan, step, desc, r.disk.Fired())
	}
	r.restart(where(-1, "open"))
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < steps; step++ {
		fired := len(r.disk.Fired())
		var desc string
		var err error
		if rng.Intn(8) == 0 {
			desc, err = "compaction", r.st.Compact(r.eng)
		} else {
			desc, err = oracleStep(t, rng, r.eng, r.m, pool)
		}
		ctx := where(step, desc)
		switch {
		case len(r.disk.Fired()) == fired && err != nil:
			t.Fatalf("%s: %v, with no fault injected", ctx, err)
		case len(r.disk.Fired()) == fired:
			continue
		case err == nil:
			t.Fatalf("%s: a fault fired and the step reported success", ctx)
		}
		// The failed commit was not applied.
		r.check(r.eng, ctx+": the serving engine")
		if r.log.landed && !errors.Is(err, violation.ErrInDoubt) {
			t.Fatalf("%s: %v — the restart replays this commit, and its error does not say it is in doubt", ctx, err)
		}
		if r.log.landed {
			inDoubt := r.m.clone()
			if r.log.set != nil {
				inDoubt.set = r.log.set
			} else {
				inDoubt.apply(r.log.ops)
			}
			r.m = inDoubt
		}
		r.st.Close()
		r.restart(ctx)
	}
	r.st.Close()
	r.reload(where(steps, "end"))
	return r.disk.Fired()
}

// reload checks that OpenStore + Load over the real disk serve the model.
func (r *faultRun) reload(ctx string) {
	r.t.Helper()
	st, err := violation.OpenStore(r.dir, violation.StoreOptions{})
	if err != nil {
		r.t.Fatalf("%s: OpenStore: %v", ctx, err)
	}
	defer st.Close()
	eng, found, err := st.Load(violation.Options{})
	if err != nil || !found {
		r.t.Fatalf("%s: Load: found=%v err=%v", ctx, found, err)
	}
	r.check(eng, ctx+": after OpenStore + Load")
}

// restart checks the directory reloads to the model, then starts the next
// process: a store on the fault disk — retried while the open itself meets a
// fault — and the engine it loads, logging through an ackLog.
func (r *faultRun) restart(ctx string) {
	r.t.Helper()
	for {
		r.reload(ctx)
		r.disk.Restart()
		fired := len(r.disk.Fired())
		st, err := violation.OpenStoreOn(r.dir, violation.StoreOptions{Sync: true}, r.disk)
		if err != nil {
			if len(r.disk.Fired()) == fired {
				r.t.Fatalf("%s: reopening: %v, with no fault injected", ctx, err)
			}
			ctx = fmt.Sprintf("%s, then reopening (%v)", ctx, err)
			continue
		}
		eng, _, err := st.Load(violation.Options{})
		if err != nil {
			r.t.Fatalf("%s: Load on the fault disk: %v", ctx, err)
		}
		r.st, r.eng, r.log = st, eng, &ackLog{Store: st, disk: r.disk}
		eng.AttachWAL(r.log)
		return
	}
}

// check holds eng to the model: the same tuples under the same ids, the same
// next id, rule set and violations.
func (r *faultRun) check(eng *violation.Engine, ctx string) {
	r.t.Helper()
	tuples, _, _ := eng.Tuples(0, 0)
	ids := r.m.liveIDs()
	same := len(tuples) == len(ids)
	for i := 0; same && i < len(ids); i++ {
		same = tuples[i].ID == ids[i] && slices.Equal(tuples[i].Values, r.m.rows[ids[i]])
	}
	if !same || eng.NextID() != r.m.nextID {
		r.t.Fatalf("%s: %d tuples up to id %d, the acknowledged commits hold %d up to %d\nengine: %v\nmodel:  %v",
			ctx, len(tuples), eng.NextID(), len(ids), r.m.nextID, tuples, r.m.rows)
	}
	if eng.RulesVersion() != r.m.set.Fingerprint() {
		r.t.Fatalf("%s: serving rules %s, the acknowledged commits %s", ctx, eng.RuleSet().Text(), r.m.set.Text())
	}
	wantViols, wantDirty := r.m.expected(r.t, r.rel.Attributes())
	if rep := eng.Report(); !violationsEqual(rep.Violations, wantViols) || !sameIDs(rep.DirtyTuples, wantDirty) {
		r.t.Fatalf("%s: violations\nengine: %v\noracle: %v", ctx, rep.Violations, wantViols)
	}
}

// ackLog is the store as the engine's commit log, keeping what a failed
// commit carried and whether its record is in the log whole: written in full
// and not cut off again.
type ackLog struct {
	*violation.Store
	disk   *violation.FaultDisk
	ops    []violation.Op
	set    *rules.Set
	landed bool
}

func (l *ackLog) Append(ops []violation.Op) error {
	return l.note(ops, nil, func() error { return l.Store.Append(ops) })
}

func (l *ackLog) AppendRules(set *rules.Set) error {
	return l.note(nil, set, func() error { return l.Store.AppendRules(set) })
}

func (l *ackLog) note(ops []violation.Op, set *rules.Set, commit func() error) error {
	writes, truncates, refused := l.disk.Effects()
	err := commit()
	if err != nil {
		// The record stays in the log whole only if it was written in full and
		// then could not be cut off again: the process crashed, or the disk
		// refused the truncate. A store that did not even try is caught here.
		w, tr, rf := l.disk.Effects()
		l.ops, l.set = ops, set
		l.landed = w > writes && tr == truncates && (l.disk.Crashed() || rf > refused)
	}
	return err
}
