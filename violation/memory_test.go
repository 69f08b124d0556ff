package violation_test

import (
	"context"
	"runtime"
	"testing"

	"repro/dataset"
	"repro/discovery"
	"repro/violation"
)

// bytesPerTupleBound is 211 B measured on amd64 with Go 1.24, plus 9 %. It
// sits below the 249 B the same load holds when every one-member group keeps
// an arena run of its own.
const bytesPerTupleBound = 230

// TestBulkLoadBytesPerTuple bounds the heap an engine holds per tuple after
// a bulk load: the relation's columns plus every LHS set's group index. On
// this Tax instance under its mined cover (71 rules) nine in ten groups hold
// one tuple, and such a group is only its entry in the group map.
func TestBulkLoadBytesPerTuple(t *testing.T) {
	rel, err := dataset.Tax(dataset.TaxConfig{Size: 5000, Arity: 7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	set, err := discovery.NewEngine(discovery.AlgFastCFD, rel, discovery.WithSupport(60), discovery.WithMaxLHS(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	eng, err := violation.New(rel.Attributes(), set, violation.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BulkLoad(rel); err != nil {
		t.Fatal(err)
	}
	perTuple := float64(heap()-before) / float64(rel.Size())
	runtime.KeepAlive(eng)
	one, run, large := eng.IndexGroups()
	t.Logf("%d rules: %.0f B per tuple; groups: %d of one tuple, %d runs, %d large", set.Len(), perTuple, one, run, large)
	if perTuple > bytesPerTupleBound {
		t.Errorf("%.0f B of heap per tuple after the bulk load, want at most %d", perTuple, bytesPerTupleBound)
	}
}
