package violation_test

import (
	"context"
	"fmt"
	"os"

	"repro/cfd"
	"repro/dataset"
	"repro/rules"
	"repro/violation"
)

// ExampleEngine_ApplyBatch keeps an engine current with one atomic batch:
// inserts, an update and a delete land together (ids may refer to tuples
// inserted earlier in the same batch), or — when any op is invalid — not at
// all.
func ExampleEngine_ApplyBatch() {
	rel := dataset.Cust()
	eng, err := violation.New(rel.Attributes(),
		rules.Of(cfd.CFD{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"131"}, RHSPattern: "EDI"}),
		violation.Options{})
	if err != nil {
		panic(err)
	}
	if err := eng.BulkLoad(rel); err != nil {
		panic(err)
	}
	fmt.Println("dirty after load:", eng.Dirty())

	ids, err := eng.ApplyBatch([]violation.Op{
		// Amy joins the AC=131 group with yet another city...
		{Kind: violation.OpInsert, Values: []string{"44", "131", "5555555", "Amy", "High St.", "GLA", "EH4 1DT"}},
		// ...is repaired in the same batch (id 8 is assigned just above)...
		{Kind: violation.OpUpdate, ID: 8, Values: []string{"44", "131", "5555555", "Amy", "High St.", "EDI", "EH4 1DT"}},
		// ...and Sean's wrong city goes away entirely.
		{Kind: violation.OpDelete, ID: 7},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("inserted ids:", ids)
	fmt.Println("dirty after batch:", eng.Dirty())

	// A batch with any invalid op applies nothing.
	if _, err := eng.ApplyBatch([]violation.Op{
		{Kind: violation.OpInsert, Values: []string{"01", "908", "1111111", "Eve", "Tree Ave.", "MH", "07974"}},
		{Kind: violation.OpDelete, ID: 7}, // already deleted
	}); err != nil {
		fmt.Println("rejected:", eng.Size(), "tuples unchanged")
	}
	// Output:
	// dirty after load: [4 5 7]
	// inserted ids: [8]
	// dirty after batch: []
	// rejected: 8 tuples unchanged
}

// ExampleStore is the durability loop of cmd/cfdserve: compact a snapshot,
// write-ahead log every mutation, and rebuild the identical engine — tuple
// ids included — after a restart.
func ExampleStore() {
	dir, err := os.MkdirTemp("", "cfdstate")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	rel := dataset.Cust()
	set := rules.Of(cfd.CFD{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"131"}, RHSPattern: "EDI"})
	eng, err := violation.New(rel.Attributes(), set, violation.Options{})
	if err != nil {
		panic(err)
	}
	if err := eng.BulkLoad(rel); err != nil {
		panic(err)
	}

	store, err := violation.OpenStore(dir, violation.StoreOptions{})
	if err != nil {
		panic(err)
	}
	if err := store.Compact(eng); err != nil { // snapshot the bulk load
		panic(err)
	}
	eng.AttachWAL(store) // from here on, every mutation is logged
	if err := eng.Delete(7); err != nil {
		panic(err)
	}
	store.Close() // "crash": the delete lives only in the write-ahead log

	store2, err := violation.OpenStore(dir, violation.StoreOptions{})
	if err != nil {
		panic(err)
	}
	defer store2.Close()
	back, found, err := store2.Load(violation.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("restored:", found)
	// Sean (tuple 7) was the one AC=131 tuple off the EDI constant, so the
	// replayed delete leaves the group clean.
	fmt.Println("tuples:", back.Size(), "dirty:", back.Dirty())
	// Output:
	// restored: true
	// tuples: 7 dirty: []
}

// ExampleEngine_SwapRules hot-swaps the served rule set while the tuples
// stay put: LHS sets whose rules did not change keep their indexes, the
// others are indexed over the live tuples, and the returned delta says what
// changed.
func ExampleEngine_SwapRules() {
	rel := dataset.Cust()
	eng, err := violation.New(rel.Attributes(),
		rules.Of(
			cfd.CFD{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"131"}, RHSPattern: "EDI"},
			cfd.NewFD([]string{"CC", "ZIP"}, "STR"),
		),
		violation.Options{})
	if err != nil {
		panic(err)
	}
	if err := eng.BulkLoad(rel); err != nil {
		panic(err)
	}
	fmt.Println("dirty before swap:", eng.Dirty())

	// Re-discovered rules arrive: the constant city rule is gone, a
	// name->phone FD is new, the street FD is retained.
	delta, err := eng.SwapRules(context.Background(), rules.Of(
		cfd.NewFD([]string{"CC", "ZIP"}, "STR"),
		cfd.NewFD([]string{"NM"}, "PN"),
	))
	if err != nil {
		panic(err)
	}
	fmt.Printf("swap: +%d -%d =%d\n", len(delta.Added), len(delta.Removed), len(delta.Retained))
	fmt.Println("dirty after swap:", eng.Dirty())
	// Output:
	// dirty before swap: [0 1 2 3 4 5 7]
	// swap: +1 -1 =1
	// dirty after swap: [0 1 2 3 7]
}
