package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/violation"
)

// oracleJSON is the reply encoding the appenders replace and must reproduce:
// encoding/json by the struct tags, two-space indent, trailing newline.
func oracleJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pick returns the slice shape two bits select: nil, empty, the first
// element, or all of them.
func pick[T any](shape uint32, shift uint, all []T) []T {
	switch shape >> shift & 3 {
	case 0:
		return nil
	case 1:
		return []T{}
	case 2:
		return all[:1]
	}
	return all
}

// wireDocs builds one value of every document that has an appender from the
// fuzz arguments: s1 and s2 feed every string, n and u every number, and the
// bits of shape choose each slice's form and each omitempty field's presence.
func wireDocs(s1, s2 string, n int64, u uint64, shape uint32) []interface{ AppendJSON([]byte) []byte } {
	bit := func(i uint) bool { return shape>>i&1 == 1 }
	ids := []int{int(n), 0, -int(n), int(u), math.MaxInt64, math.MinInt64}
	strs := []string{s1, s2, "", s1 + s2}
	entries := []RuleTuples{
		{Rule: s1, Tuples: pick(shape, 0, ids)},
		{Rule: s2, Tuples: pick(shape, 2, ids)},
		{Tuples: ids},
	}
	var epoch *uint64
	var count *int
	applied, cursor := 0, ""
	if bit(4) {
		epoch = &u
	}
	if bit(5) {
		c := int(n)
		count = &c
	}
	if bit(6) {
		applied = int(n)
	}
	if bit(7) {
		cursor = s2
	}
	tuples := []TupleDoc{
		{ID: int(n), Values: pick(shape, 8, strs)},
		{ID: int(u), Values: pick(shape, 10, strs)},
		{Values: strs},
	}
	return []interface{ AppendJSON([]byte) []byte }{
		ViolationsDoc{
			Dirty:        pick(shape, 12, ids),
			Epoch:        epoch,
			Epochs:       pick(shape, 14, []uint64{u, 0, math.MaxUint64}),
			NextCursor:   cursor,
			RulesChecked: int(n),
			Violations:   pick(shape, 16, entries),
		},
		ChangesDoc{
			Epoch: u,
			Delta: DeltaDoc{
				Epoch:        u + 1,
				Added:        pick(shape, 18, entries),
				Removed:      pick(shape, 20, entries),
				DirtyAdded:   pick(shape, 22, ids),
				DirtyRemoved: pick(shape, 24, ids),
				Rules:        pick(shape, 26, strs),
			},
		},
		TuplesDoc{NextCursor: cursor, Total: int(n), Tuples: pick(shape, 28, tuples)},
		WriteDoc{Applied: applied, Dirty: count, IDs: pick(shape, 30, ids), Tuples: count},
	}
}

// FuzzWireDocs holds every appender to encoding/json on the same value. The
// seeds alone (they run under plain `go test`) cover nil against empty
// slices, each omitempty field present and absent, negative and 19-digit
// numbers, and the strings encoding/json escapes: HTML characters, quotes and
// backslashes, control characters, U+2028/2029 and invalid UTF-8.
func FuzzWireDocs(f *testing.F) {
	f.Add("", "", int64(0), uint64(0), uint32(0))                                      // every slice nil, every optional field absent
	f.Add("", "", int64(0), uint64(0), uint32(0x55555555)&^0xf0)                       // every slice empty
	f.Add("r", "7", int64(1), uint64(2), uint32(0xaaaaaaaa)|0xf0)                      // one element each, every optional field present
	f.Add("([A] -> B, (_ || _))", "12", int64(-42), uint64(88000), uint32(0xffffffff)) // everything populated
	f.Add(`<script>&"\`, "\x00\x01\b\f\n\r\t\x1f\x7f", int64(math.MinInt64), uint64(math.MaxUint64), uint32(0xffffffff))
	f.Add("\u2028x\u2029", "\xff\xfe\xe2\x80", int64(math.MaxInt64), uint64(1)<<63, uint32(0xdeadbeef))
	f.Add("日本語 é \U0001F600", "a\xc0\xafb", int64(1234567890123456789), uint64(9876543210987654321), uint32(0x12345678))
	// Report pairs: the same lists, lists grown at the end, changed inside.
	f.Add("r", "s", int64(3), uint64(0), uint32(0xffffffff))
	f.Add("r", "s", int64(5), uint64(0x5555), uint32(0xffffffff))
	f.Add("r", "r", int64(1), uint64(0xaaaa), uint32(0xfffbffff))
	f.Add("r", "s", int64(2), uint64(0x1b1b), uint32(0xffffffff))
	f.Add("0", "0", int64(math.MinInt64+11), uint64(math.MaxUint64), uint32(0xffffff7c)) // two rules of one name
	f.Fuzz(func(t *testing.T, s1, s2 string, n int64, u uint64, shape uint32) {
		for _, doc := range wireDocs(s1, s2, n, u, shape) {
			want := oracleJSON(t, doc)
			if got := doc.AppendJSON(nil); !bytes.Equal(got, want) {
				t.Fatalf("%T.AppendJSON departs from encoding/json\n got: %s\nwant: %s", doc, got, want)
			}
			// Appending means appending: what is already in dst stays.
			if got := doc.AppendJSON([]byte("kept")); !bytes.Equal(got, append([]byte("kept"), want...)) {
				t.Fatalf("%T.AppendJSON overwrote its destination: %s", doc, got)
			}
		}
		// The reusing encode of a report after the one before it is the plain
		// encode of the report, and so is a second one after itself.
		prev, next := reportPair(s1, s2, n, u, shape)
		var first, second, third ReportEncoding
		first.Encode(prev, &ReportEncoding{})
		second.Encode(next, &first)
		third.Encode(next, &second)
		for _, c := range []struct {
			what string
			got  *ReportEncoding
			doc  ViolationsDoc
		}{{"the first report", &first, prev}, {"the report after it", &second, next}, {"the same report again", &third, next}} {
			if want := c.doc.AppendJSON(nil); !bytes.Equal(c.got.JSON, want) {
				t.Fatalf("Encode of %s departs from AppendJSON\n got: %s\nwant: %s", c.what, c.got.JSON, want)
			}
		}
		// Lists are remembered by rule, and a node's report names each rule
		// once, as a rule set holds it.
		names := map[string]bool{}
		for _, rt := range next.Violations {
			names[rt.Rule] = true
		}
		if third.Encoded != 0 && len(names) == len(next.Violations) {
			t.Fatalf("encoding a report after itself encoded %d bytes of ids afresh", third.Encoded)
		}
	})
}

// reportPair derives from the fuzz arguments a full report and the one
// before it, related as a node's consecutive full reads are: two bits of u
// per id list choose whether the earlier list is the very same slice, the
// later one without its last element (the list grew at its end), a copy with
// the element at n mod its length changed, or absent — nil for the dirty
// list, for a rule's tuples another rule name. The earlier report lists its
// rules in reverse order: entries are matched by rule, not by position.
func reportPair(s1, s2 string, n int64, u uint64, shape uint32) (prev, next ViolationsDoc) {
	next = wireDocs(s1, s2, n, u, shape)[0].(ViolationsDoc)
	earlier := func(v []int, sel uint64) []int {
		switch {
		case sel&3 == 0 || len(v) == 0:
			return v
		case sel&3 == 1:
			return v[:len(v)-1]
		case sel&3 == 2:
			c := append([]int(nil), v...)
			c[uint64(n)%uint64(len(c))]++
			return c
		}
		return nil
	}
	prev = next
	prev.Dirty = earlier(next.Dirty, u)
	prev.Violations = nil
	for i, rt := range next.Violations {
		sel := u >> (2 * (i + 1))
		if sel&3 == 3 {
			rt.Rule += "~"
		}
		rt.Tuples = earlier(rt.Tuples, sel)
		prev.Violations = append([]RuleTuples{rt}, prev.Violations...)
	}
	return prev, next
}

// TestReportEncodingReuses pins what Encode exists for, in counts, so it
// gates on any machine: after a report whose rules each gained ids at the end
// and one of which changed inside, and whose dirty list grew, only the new
// ids and the changed rule's tail are encoded afresh; an unchanged report
// encodes no ids at all; and all of it byte for byte as AppendJSON.
func TestReportEncodingReuses(t *testing.T) {
	prev := bulkReport()
	next := prev
	next.Dirty = append(slices.Clip(prev.Dirty), 30000, 30001)
	next.Violations = slices.Clone(prev.Violations)
	for r := range next.Violations {
		if r%10 == 0 {
			next.Violations[r].Tuples = append(slices.Clip(prev.Violations[r].Tuples), 40000+r)
		}
	}
	changed := slices.Clone(prev.Violations[1].Tuples)
	changed[500]++
	next.Violations[1].Tuples = changed
	var a, b ReportEncoding
	a.Encode(prev, &b)
	if a.Reused != 0 || a.Encoded == 0 {
		t.Fatalf("the first encode copied %d bytes and encoded %d", a.Reused, a.Encoded)
	}
	b.Encode(next, &a)
	if want := next.AppendJSON(nil); !bytes.Equal(b.JSON, want) {
		t.Fatal("the reusing encode departs from AppendJSON")
	}
	// The twelve new ids, the closing lines after them, and the changed
	// rule's last 100 ids: some 2 KB of the 1.3 MB.
	if b.Encoded > 4<<10 || b.Reused < 1<<20 {
		t.Errorf("after a report with a few appended ids: %d bytes reused, %d encoded", b.Reused, b.Encoded)
	}
	a.Encode(next, &b)
	if !bytes.Equal(a.JSON, b.JSON) || a.Encoded != 0 || a.Reused != b.Reused+b.Encoded {
		t.Errorf("the same report again: %d bytes reused, %d encoded; want %d and 0", a.Reused, a.Encoded, b.Reused+b.Encoded)
	}
}

// bulkReport is the report shape that made the appenders matter: a hundred
// rules sharing some ninety thousand ids, a third of them dirty — over a
// megabyte on the wire.
func bulkReport() ViolationsDoc {
	const rules, perRule = 100, 600
	epoch := uint64(12345)
	doc := ViolationsDoc{Epoch: &epoch, RulesChecked: rules, Violations: make([]RuleTuples, rules), Dirty: make([]int, 30000)}
	for r := range doc.Violations {
		ids := make([]int, perRule)
		for i := range ids {
			ids[i] = r + i*50
		}
		doc.Violations[r] = RuleTuples{Rule: "([A,B] -> C, (" + strconv.Itoa(r) + ", _ || _))", Tuples: ids}
	}
	for i := range doc.Dirty {
		doc.Dirty[i] = i
	}
	return doc
}

// TestViolationsDocEncodeAllocs pins the property the appenders exist for:
// encoding the bulk report into a buffer that has held it before allocates
// nothing, where encoding/json allocated several times the body. A count, not
// a timing, so it gates on any machine.
func TestViolationsDocEncodeAllocs(t *testing.T) {
	doc := bulkReport()
	buf := doc.AppendJSON(nil)
	if len(buf) < 1<<20 {
		t.Fatalf("the report is %d bytes, want at least a megabyte", len(buf))
	}
	if !bytes.Equal(buf, oracleJSON(t, doc)) {
		t.Fatal("the bulk report departs from encoding/json")
	}
	if allocs := testing.AllocsPerRun(10, func() { buf = doc.AppendJSON(buf[:0]) }); allocs != 0 {
		t.Errorf("a warm-buffer encode of the %d-byte report allocates %.0f times, want 0", len(buf), allocs)
	}
}

// BenchmarkViolationsDoc encodes the bulk report both ways: the appender into
// a warm buffer, as writeJSON runs it, and the encoding/json path it replaced.
func BenchmarkViolationsDoc(b *testing.B) {
	doc := bulkReport()
	b.Run("append", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for b.Loop() {
			buf = doc.AppendJSON(buf[:0])
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			b.SetBytes(int64(len(oracleJSON(b, doc))))
		}
	})
	// A node's full read after the previous one: every tenth rule and the
	// dirty list gained an id at the end.
	b.Run("reencode", func(b *testing.B) {
		next := doc
		next.Dirty = append(slices.Clip(doc.Dirty), 30000)
		next.Violations = slices.Clone(doc.Violations)
		for r := 0; r < len(next.Violations); r += 10 {
			next.Violations[r].Tuples = append(slices.Clip(doc.Violations[r].Tuples), 40000+r)
		}
		var cur, spare ReportEncoding
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			d := doc
			if i%2 == 1 {
				d = next
			}
			spare.Encode(d, &cur)
			cur, spare = spare, cur
		}
		b.SetBytes(int64(len(cur.JSON)))
	})
}

// TestDecodeBatchRequest: the body a ShardClient sends is read without the
// hand-over, whatever its values hold; a body only encoding/json reads —
// spaced, other key case, bytes after the document — decodes to the same ops
// through it; and a refusal is encoding/json's, word for word. FuzzDecodeOps
// (package violation) holds the two together on arbitrary bytes.
func TestDecodeBatchRequest(t *testing.T) {
	at := 3
	want := BatchRequest{Ops: []violation.Op{
		{Kind: violation.OpInsert, Values: []string{`<a&b>"\`, "\x00\u2028é"}, At: &at},
		{Kind: violation.OpUpdate, ID: 7, Values: []string{"x", "y"}},
		{Kind: violation.OpDelete, ID: 0},
	}}
	sent, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got, plain := readBatchRequest(sent); !plain || !reflect.DeepEqual(got, want) {
		t.Fatalf("a ShardClient body takes the hand-over (plain = %v): %s\n got %+v", plain, sent, got)
	}
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, bytes.Replace(sent, []byte(`"ops"`), []byte(`"OPS"`), 1), "", "\t"); err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{sent, spaced.Bytes(), append(sent[:len(sent):len(sent)], " trailing bytes"...)} {
		if got, err := DecodeBatchRequest(body); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s\n got %+v, %v", body, got, err)
		}
	}
	for _, body := range []string{``, `{"ops":[{"op":"delete"}]}`, `{"ops":[{"op":"update","id":1,"at":2}]}`, `{"ops":[{"op":"delete","id":1e99}]}`, `{"ops":[`} {
		var ref BatchRequest
		wantErr := json.NewDecoder(bytes.NewReader([]byte(body))).Decode(&ref)
		if _, err := DecodeBatchRequest([]byte(body)); err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%q: error %v, encoding/json says %v", body, err, wantErr)
		}
	}
}

// BenchmarkDecodeBatchRequest decodes the body the write path is sized by — a
// batch of 256 seven-value inserts, 17 KB — both ways: as the handler does,
// and through the encoding/json call every other body takes.
func BenchmarkDecodeBatchRequest(b *testing.B) {
	req := BatchRequest{Ops: make([]violation.Op, 256)}
	for i := range req.Ops {
		n := strconv.Itoa(i)
		req.Ops[i] = violation.Op{Kind: violation.OpInsert, Values: []string{"01", "908", "555" + n, "Name " + n, n + " Tree Ave.", "MH", "0" + n}}
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			if _, err := DecodeBatchRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var req BatchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
