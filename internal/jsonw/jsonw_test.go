package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestStringMatchesEncodingJSON walks every byte value on its own and
// embedded in text, every rune the standard encoder treats specially, and
// truncated multi-byte sequences.
func TestStringMatchesEncodingJSON(t *testing.T) {
	var cases []string
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), "a"+string([]byte{byte(b)})+"z")
	}
	cases = append(cases,
		"", "plain", `<>&"\`, "\u2028", "x\u2029y", "\u2027\u202a", "\ufffd", "é", "日本語", "\U0001F600",
		"\xe2\x80", "\xe2\x80\xa8\xe2", "\xf0\x9f\x98", "a\xffb\xfe", "\xc0\xaf", "\xed\xa0\x80",
		strings.Repeat("<\x00\u2028\xff", 50),
	)
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
	if got := appendString([]byte("k="), "v"); string(got) != `k="v"` {
		t.Errorf("appendString does not append: %s", got)
	}
}

// nest is a value with every shape the writer has a branch for — nil, empty
// and populated arrays of each element type, nested objects, an empty object —
// under struct tags that make encoding/json the oracle for both modes.
type nest struct {
	Int     int64      `json:"int"`
	Uint    uint64     `json:"uint"`
	Str     string     `json:"str"`
	NilStrs []string   `json:"nil_strs"`
	NoStrs  []string   `json:"no_strs"`
	Strs    []string   `json:"strs"`
	NilInts []int      `json:"nil_ints"`
	NoInts  []int32    `json:"no_ints"`
	Ints    []int      `json:"ints"`
	I32s    []int32    `json:"i32s"`
	U64s    []uint64   `json:"u64s"`
	Rows    [][]string `json:"rows"`
	Empty   struct{}   `json:"empty"`
	Ptr     *int       `json:"ptr"`
	Raw     bool       `json:"raw"`
}

func (n nest) encode(w *Writer) {
	w.Open('{')
	w.Key("int")
	w.Int(n.Int)
	w.Key("uint")
	w.Uint(n.Uint)
	w.Key("str")
	w.String(n.Str)
	w.Key("nil_strs")
	w.Strings(n.NilStrs)
	w.Key("no_strs")
	w.Strings(n.NoStrs)
	w.Key("strs")
	w.Strings(n.Strs)
	w.Key("nil_ints")
	Ints(w, n.NilInts)
	w.Key("no_ints")
	Ints(w, n.NoInts)
	w.Key("ints")
	Ints(w, n.Ints)
	w.Key("i32s")
	Ints(w, n.I32s)
	w.Key("u64s")
	Ints(w, n.U64s)
	w.Key("rows")
	w.Open('[')
	for _, row := range n.Rows {
		w.Elem()
		w.Strings(row)
	}
	w.Close(']')
	w.Key("empty")
	w.Open('{')
	w.Close('}')
	w.Key("ptr")
	w.Null()
	w.Key("raw")
	w.Raw([]byte("true"))
	w.Close('}')
}

func TestWriterMatchesEncodingJSON(t *testing.T) {
	v := nest{
		Int: math.MinInt64, Uint: math.MaxUint64, Str: "a<b>\u2028",
		NoStrs: []string{}, Strs: []string{"x", "", "\"q\""},
		NoInts: []int32{}, Ints: []int{0, -1, math.MaxInt64, math.MinInt64},
		I32s: []int32{-1, 0, math.MaxInt32, math.MinInt32}, U64s: []uint64{0, math.MaxUint64},
		Rows: [][]string{{"a", "b"}, {}, nil}, Raw: true,
	}
	compact, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	w := Compact(nil)
	v.encode(&w)
	if !bytes.Equal(w.Buf, compact) {
		t.Errorf("compact:\n got %s\nwant %s", w.Buf, compact)
	}

	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, "", "  "); err != nil {
		t.Fatal(err)
	}
	w = Indented([]byte("prefix"))
	v.encode(&w)
	if got := strings.TrimPrefix(string(w.Buf), "prefix"); got != indented.String() {
		t.Errorf("indented:\n got %s\nwant %s", got, indented.String())
	}
}

// TestIntsMatchesEncodingJSON covers lists longer than the chunk Ints
// reserves room for, and every digit count, sign and width.
func TestIntsMatchesEncodingJSON(t *testing.T) {
	var v []int64
	for p := int64(1); p > 0 && p <= math.MaxInt64/10; p *= 10 {
		v = append(v, p-1, p, -p, -p+1, p*10-1)
	}
	v = append(v, math.MaxInt64, math.MinInt64)
	for len(v) < 1000 {
		v = append(v, int64(len(v))*7919)
	}
	u := []uint64{math.MaxUint64, 1e19, 1e19 - 1, 0}
	for _, indent := range []bool{false, true} {
		for _, val := range []any{v, u} {
			want, err := json.Marshal(val)
			if err != nil {
				t.Fatal(err)
			}
			w := Compact(nil)
			if indent {
				var buf bytes.Buffer
				if err := json.Indent(&buf, want, "", "  "); err != nil {
					t.Fatal(err)
				}
				want, w = buf.Bytes(), Indented(nil)
			}
			switch val := val.(type) {
			case []int64:
				Ints(&w, val)
			case []uint64:
				Ints(&w, val)
			}
			if !bytes.Equal(w.Buf, want) {
				t.Errorf("indent %v:\n got %s\nwant %s", indent, w.Buf, want)
			}
		}
	}
}

// TestIntsReusing holds the reusing encoder to Ints on every kind of pair of
// lists — the same slice, a copy, a prefix either way, an append, a change in
// the middle or at the front, nil and empty on either side — in both modes,
// nested, and checks how much of each it copied.
func TestIntsReusing(t *testing.T) {
	base := []int{3, 17, 256, 1000, 1001, 99999}
	with := func(v []int, i, x int) []int { v = slices.Clone(v); v[i] = x; return v }
	for _, c := range []struct {
		name       string
		prev, next []int
		// reused is how many of prev's elements are copied; -1 all its bytes.
		reused int
	}{
		{"the same slice", base, base, -1},
		{"a copy", base, slices.Clone(base), 6},
		{"appended", base, append(slices.Clone(base), 100000, 100001), 6},
		{"tail removed", base, slices.Clone(base[:4]), 4},
		{"a prefix of the same array", base, base[:4], 4},
		{"last changed", base, with(base, 5, 100000), 5},
		{"middle changed", base, with(base, 2, 257), 2},
		{"first changed", base, with(base, 0, 4), 0},
		{"one element left", base, []int{3}, 1},
		{"from one element", []int{3}, base, 1},
		{"from empty", []int{}, base, 0},
		{"to empty", base, []int{}, 0},
		{"empty to empty", []int{}, []int{}, -1},
		{"from nil", nil, base, 0},
		{"to nil", base, nil, 0},
		{"nil to nil", nil, nil, -1},
		{"negative", []int{-5, -3, 7}, []int{-5, -3, 8}, 2},
	} {
		for _, indent := range []bool{false, true} {
			// list writes v one level down, as a report's lists sit, with
			// Ints or, given prev, with IntsReusing; it returns v's bytes and
			// the count IntsReusing returned.
			list := func(v, prev []int, prevJSON []byte) ([]byte, int) {
				w := Compact([]byte("x"))
				if indent {
					w = Indented([]byte("x"))
				}
				w.Open('[')
				w.Elem()
				from, reused := len(w.Buf), 0
				if prevJSON == nil {
					Ints(&w, v)
				} else {
					reused = IntsReusing(&w, v, prev, prevJSON)
				}
				to := len(w.Buf)
				w.Close(']')
				return w.Buf[from:to], reused
			}
			prevJSON, _ := list(c.prev, nil, nil)
			want, _ := list(c.next, nil, nil)
			got, reused := list(c.next, c.prev, prevJSON)
			if !bytes.Equal(got, want) {
				t.Errorf("%s, indent %v:\n got %s\nwant %s", c.name, indent, got, want)
			}
			// All of prevJSON, or its bytes up to the last digit of the last
			// element copied.
			wantReused := len(prevJSON)
			if c.reused == 0 {
				wantReused = 0
			} else if c.reused > 0 {
				head, _ := list(c.prev[:c.reused], nil, nil)
				wantReused = len(bytes.TrimRight(head, "\n ]"))
			}
			if reused != wantReused {
				t.Errorf("%s, indent %v: %d bytes reused, want %d", c.name, indent, reused, wantReused)
			}
		}
	}
	// No earlier list at all: no bytes to copy, whatever prev says.
	w, want := Compact(nil), Compact(nil)
	Ints(&want, base)
	if reused := IntsReusing(&w, base, base, nil); reused != 0 || !bytes.Equal(w.Buf, want.Buf) {
		t.Errorf("without earlier bytes: %s, %d reused; want %s", w.Buf, reused, want.Buf)
	}
}

// TestWriterDeepNesting nests past the precomputed indentation.
func TestWriterDeepNesting(t *testing.T) {
	const depth = 40
	compact := strings.Repeat("[", depth) + "1,2" + strings.Repeat("]", depth)
	var want bytes.Buffer
	if err := json.Indent(&want, []byte(compact), "", "  "); err != nil {
		t.Fatal(err)
	}
	w := Indented(nil)
	for i := 0; i < depth-1; i++ {
		w.Open('[')
		w.Elem()
	}
	Ints(&w, []int{1, 2})
	for i := 0; i < depth-1; i++ {
		w.Close(']')
	}
	if !bytes.Equal(w.Buf, want.Bytes()) {
		t.Errorf("got %s\nwant %s", w.Buf, want.Bytes())
	}
}
