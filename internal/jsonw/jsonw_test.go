package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
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
