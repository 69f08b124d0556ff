package violation

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/cfd"
	"repro/internal/core"
	"repro/rules"
)

// fuzzSeedSnapshot builds a small real snapshot (format 2) to seed the corpus:
// a few tuples with shared and unique values, a deleted hole, and a rule set.
func fuzzSeedSnapshot(tb testing.TB) []byte {
	tb.Helper()
	set := rules.Of(
		cfd.NewFD([]string{"A"}, "B"),
		cfd.CFD{LHS: []string{"A"}, RHS: "C", LHSPattern: []string{"x"}, RHSPattern: "k"},
	)
	eng, err := New([]string{"A", "B", "C"}, set, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, row := range [][]string{{"x", "1", "k"}, {"x", "2", "k"}, {"y", "1", ""}, {"z", "", "a|b"}} {
		if _, err := eng.Insert(row...); err != nil {
			tb.Fatal(err)
		}
	}
	if err := eng.Delete(2); err != nil {
		tb.Fatal(err)
	}
	return encodeSnapshot(tb, eng, nil)
}

// encodeSnapshot streams a snapshot of eng the way Store.Compact does and
// holds the result to encoding/json's rendering of the reference snapshotFile
// of the same state (captureSnapshot): the streamed writer may be leaner,
// never different. seq is called once, as by a compaction.
func encodeSnapshot(tb testing.TB, eng *Engine, seq func() uint64) []byte {
	tb.Helper()
	live := eng.captureLive(seq)
	var buf bytes.Buffer
	size, err := live.stream(&buf)
	if err != nil {
		tb.Fatalf("streaming a snapshot: %v", err)
	}
	data := buf.Bytes()
	if size != len(data)-1 || data[size] != '\n' {
		tb.Fatalf("stream reported %d bytes and wrote %d, the last %q", size, len(data), data[len(data)-1:])
	}
	data = data[:size]
	want, err := json.Marshal(eng.captureSnapshot(func() uint64 { return live.walSeq }))
	if err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		tb.Fatalf("snapshot stream departs from encoding/json\n got: %.2000s\nwant: %.2000s", data, want)
	}
	return data
}

// captureSnapshot is the reference snapshot of the engine's state, built as
// compaction built it before it streamed: the whole relation in raw form —
// every id slot — recoded, holes kept, into an empty relation, so codes land
// in first-use order over an ascending-id scan; json.Marshal of the result is
// the snapshot's bytes. A nil seq records sequence 0.
func (e *Engine) captureSnapshot(seq func() uint64) *snapshotFile {
	e.mu.RLock()
	defer e.mu.RUnlock()
	file := &snapshotFile{Format: currentFormat, Attributes: e.schema.Names(), RuleSet: e.set, NextID: e.rel.Size()}
	if seq != nil {
		file.WalSeq = seq()
	}
	canon := core.NewRelation(e.schema)
	dicts, cols := e.rel.Raw()
	canon.AppendRecoded(dicts, cols, file.NextID, true)
	file.Dicts, file.Columns = canon.Raw()
	return file
}

// unmarshalSnapshotFile is the all-encoding/json decode decodeSnapshotFile
// replaced, kept as its reference.
func unmarshalSnapshotFile(data []byte) (*snapshotFile, error) {
	var file snapshotFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, err
	}
	if err := file.validate(); err != nil {
		return nil, err
	}
	return &file, nil
}

// sameSnapshotDecode holds decodeSnapshotFile's outcome on data to the
// reference's: the same refusal in the same words, or the same file — nil
// against empty slices included, the rule set by its JSON.
func sameSnapshotDecode(tb testing.TB, data []byte, file *snapshotFile, err error) {
	tb.Helper()
	want, wantErr := unmarshalSnapshotFile(data)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		tb.Fatalf("decoding %q: error %v, encoding/json alone says %v", data, err, wantErr)
	}
	if err != nil {
		return
	}
	got, want2 := *file, *want
	got.RuleSet, want2.RuleSet = nil, nil
	if !reflect.DeepEqual(got, want2) {
		tb.Fatalf("decoding %q\n got %+v\nwant %+v", data, got, want2)
	}
	gotRules, _ := json.Marshal(file.RuleSet)
	wantRules, _ := json.Marshal(want.RuleSet)
	if !bytes.Equal(gotRules, wantRules) {
		tb.Fatalf("decoding %q: rule set %s, want %s", data, gotRules, wantRules)
	}
}

// FuzzSnapshotRoundTrip feeds arbitrary bytes to the snapshot decoder and
// checks the properties the persistence layer promises: corrupt or truncated
// input is rejected with an error — never a panic, never an oversized
// allocation; the decoder's one-pass reader and its hand-over are together
// indistinguishable from json.Unmarshal (sameSnapshotDecode); and any input
// that decodes restores into an engine whose re-encoded snapshot is
// byte-stable (encode → restore → encode is the identity from the first encode
// on). Every snapshot streamed on the way is also held to json.Marshal of the
// reference snapshotFile of the same state (encodeSnapshot).
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(fuzzSeedSnapshot(f))
	// A format 1 snapshot, as builds before PR 9 wrote it: no longer read, so
	// it must take the clean-rejection exit.
	f.Add([]byte(`{"format":1,"wal_seq":3,"attributes":["A","B"],"ruleset":{"rules":["([A] -> B, (_ || _))"]},"next_id":3,"tuples":[{"id":0,"values":["x","1"]},{"id":2,"values":["x","2"]}]}`))
	// Structurally broken variants: truncated, dangling code, ragged column,
	// duplicate dictionary value, dead id on one column only.
	f.Add(fuzzSeedSnapshot(f)[:40])
	f.Add([]byte(`{"format":2,"attributes":["A"],"next_id":1,"dicts":[["x"]],"columns":[[7]]}`))
	f.Add([]byte(`{"format":2,"attributes":["A","B"],"next_id":2,"dicts":[["x"],["y"]],"columns":[[0,0],[0]]}`))
	f.Add([]byte(`{"format":2,"attributes":["A"],"next_id":1,"dicts":[["x","x"]],"columns":[[0]]}`))
	f.Add([]byte(`{"format":2,"attributes":["A","B"],"next_id":1,"dicts":[["x"],["y"]],"columns":[[-1],[0]]}`))
	// What only encoding/json reads: other key case, whitespace, null, a key
	// twice, an unknown key, a number with an exponent.
	f.Add([]byte(`{"Format":2, "ATTRIBUTES":["A"], "ruleset":null, "next_id":1, "dicts":[["x"]], "columns":[[0]], "columns":[[0]], "more":1}`))
	f.Add([]byte(`{"format":2,"attributes":["A"],"ruleset":{"rules":[]},"next_id":1e0,"dicts":[["x"]],"columns":[[0]]}`))
	f.Add([]byte(`{"format":2,"attributes":["A"],"ruleset":{"rules":["no rule"]},"next_id":1,"dicts":[["x"]],"columns":[[0]]}`))
	f.Add([]byte(`{"format":2,"attributes":["A"],"ruleset":{"rules":[]},"next_id":1,"dicts":[],"columns":[[4294967296]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := decodeSnapshotFile(data)
		sameSnapshotDecode(t, data, file, err)
		if err != nil {
			return // rejected cleanly; a panic would fail the fuzzer
		}
		if file.Format != currentFormat {
			t.Fatalf("decoder accepted format %d", file.Format)
		}
		restore := func(file *snapshotFile) *Engine {
			eng, err := New(file.Attributes, file.RuleSet, Options{})
			if err != nil {
				return nil // invalid schema or rules: a clean rejection
			}
			if err := eng.restoreSnapshot(file); err != nil {
				return nil
			}
			return eng
		}
		eng := restore(file)
		if eng == nil {
			return
		}
		seq := func() uint64 { return file.WalSeq }
		out1 := encodeSnapshot(t, eng, seq)
		file2, err := decodeSnapshotFile(out1)
		if err != nil {
			t.Fatalf("re-decoding an engine-written snapshot: %v\n%s", err, out1)
		}
		eng2 := restore(file2)
		if eng2 == nil {
			t.Fatalf("re-restoring an engine-written snapshot failed\n%s", out1)
		}
		out2 := encodeSnapshot(t, eng2, seq)
		if !bytes.Equal(out1, out2) {
			t.Fatalf("snapshot round trip is not byte-stable\nfirst:  %s\nsecond: %s", out1, out2)
		}
	})
}
