package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Self time is a span's duration minus what its direct children cover:
// overlapping children count once, and a child is clipped to its parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "violation", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "store", Start: 10, End: 40},
		{ID: 2, Parent: 0, Layer: "store", Start: 30, End: 60},  // overlaps span 1 by 10
		{ID: 3, Parent: 1, Layer: "disk", Start: 15, End: 25},   // grandchild: leaves span 0 alone
		{ID: 4, Parent: 0, Layer: "store", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: -1, Layer: "violation", Start: 200, End: 230},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"violation": (100 - 50 - 10) + 30, // span 0: [10,60) and [90,100) covered
		"store":     (30 - 10) + 30 + 30,
		"disk":      10,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %d of them", got, len(want))
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.do("violation", "ApplyBatch", func() {
		tr.do("store", "Append", func() { time.Sleep(2 * time.Millisecond) })
		tr.do("store", "Append", func() {})
	})
	tr.do("rules", "Parse", func() {})
	if len(tr.spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(tr.spans))
	}
	for i, wantParent := range []int{-1, 0, 0, -1} {
		if tr.spans[i].Parent != wantParent {
			t.Errorf("span %d has parent %d, want %d", i, tr.spans[i].Parent, wantParent)
		}
	}
	if tr.spans[0].Op != 1 || tr.spans[2].Op != 1 || tr.spans[3].Op != 2 {
		t.Errorf("op ids = %d, %d, %d, want 1, 1, 2", tr.spans[0].Op, tr.spans[2].Op, tr.spans[3].Op)
	}
	if tr.spans[1].Name != "store.Append" {
		t.Errorf("span name = %q", tr.spans[1].Name)
	}
	outer, inner := tr.spans[0], tr.spans[1]
	if inner.Start < outer.Start || inner.End > outer.End || inner.dur() < 2*time.Millisecond {
		t.Errorf("child %+v does not sit inside parent %+v", inner, outer)
	}
	self := selfTimes(tr.spans)
	if self["violation"] >= outer.dur() || self["store"] < 2*time.Millisecond {
		t.Errorf("self times %v do not separate the store's share", self)
	}
	if got := tr.durations("store.Append"); len(got) != 2 {
		t.Errorf("durations(store.Append) has %d entries, want 2", len(got))
	}

	// Switched off, the tracer still runs the function and times it, but
	// records nothing: that is the "spans off" side of the overhead figure.
	tr.on = false
	ran := false
	if d := tr.do("rules", "Parse", func() { ran = true; time.Sleep(time.Millisecond) }); !ran || d < time.Millisecond {
		t.Errorf("disabled tracer: ran=%v d=%v", ran, d)
	}
	if len(tr.spans) != 4 {
		t.Errorf("disabled tracer recorded a span")
	}
}

func TestTraceFile(t *testing.T) {
	tr := newTracer()
	tr.do("dataset", "LoadCSVFile", func() {})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path, "mine-tall", 7); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workload != "mine-tall" || doc.Seed != 7 || len(doc.Spans) != 1 || doc.Spans[0].Name != "dataset.LoadCSVFile" {
		t.Errorf("trace file = %+v", doc)
	}
	if _, ok := doc.SelfS["dataset"]; !ok {
		t.Errorf("trace file has no self time for dataset: %v", doc.SelfS)
	}
}
