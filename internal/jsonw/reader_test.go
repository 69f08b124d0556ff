package jsonw

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// readerDoc has a member for every Reader call, under struct tags that make
// encoding/json the oracle for what the Reader accepts.
type readerDoc struct {
	N    int        `json:"n"`
	U    uint64     `json:"u"`
	S    string     `json:"s"`
	Strs []string   `json:"strs"`
	I32s []int32    `json:"i32s"`
	Rows [][]string `json:"rows"`
	Sub  *readerSub `json:"sub"`
}

type readerSub struct {
	A []any  `json:"a"`
	B string `json:"b"`
}

// readDoc is a decoder written the way the real ones are: a flat loop over
// Key, one Plain at the end.
func readDoc(data []byte) (readerDoc, bool) {
	r := Read(data)
	var d readerDoc
	var seen uint32
	for r.Open('{'); r.More('}'); {
		switch r.Key(&seen, "n", "u", "s", "strs", "i32s", "rows", "sub") {
		case "n":
			d.N = r.Int()
		case "u":
			d.U = r.Uint()
		case "s":
			d.S = r.String()
		case "strs":
			d.Strs = r.Strings()
		case "i32s":
			d.I32s = r.Int32s()
		case "rows":
			d.Rows = [][]string{}
			for r.Open('['); r.More(']'); {
				d.Rows = append(d.Rows, r.Strings())
			}
		case "sub":
			d.Sub = new(readerSub)
			if json.Unmarshal(r.Object(), d.Sub) != nil {
				r.Fail()
			}
		}
	}
	return d, r.Plain()
}

// checkReader holds the Reader to its contract on one document: whatever it
// calls plain, encoding/json accepts too and decodes to the same value.
func checkReader(t *testing.T, data []byte) (plain bool) {
	t.Helper()
	got, plain := readDoc(data)
	if !plain {
		return false
	}
	var want readerDoc
	if err := json.Unmarshal(data, &want); err != nil {
		t.Errorf("the reader accepts %q, encoding/json says %v", data, err)
	} else if !reflect.DeepEqual(got, want) {
		t.Errorf("%q\n read %+v\n want %+v", data, got, want)
	}
	return true
}

func TestReaderMatchesEncodingJSON(t *testing.T) {
	for _, tc := range []struct {
		doc   string
		plain bool
	}{
		{`{}`, true},
		{`{"n":0}`, true},
		{`{"n":-0}`, true},
		{`{"n":-12,"u":18446744073709551615}`, true},
		{`{"u":7,"n":9223372036854775807}`, true}, // any order
		{`{"n":-9223372036854775808}`, true},
		{`{"s":""}`, true},
		{"{\"s\":\"plain é 日本語 \U0001F600 \x7f\"}", true},
		{`{"s":"\"\\\b\f\n\r\t\u0000\u001f\u003c\u003e\u0026\u2028\u2029\ufffd\uABCD\uabcd"}`, true},
		{`{"s":"aéb\\c"}`, true},
		{`{"strs":[]}`, true},
		{`{"strs":["a","","\n"]}`, true},
		{`{"i32s":[]}`, true},
		{`{"i32s":[0,-1,2147483647,-2147483648]}`, true},
		{`{"rows":[]}`, true},
		{`{"rows":[[],["x"],["y","z"]]}`, true},
		{`{"sub":{}}`, true},
		{`{"sub":{"a":[1,"]}",{"x":[null,true]}],"b":"\"}"}}`, true},
		{`{"n":1,"s":"x","sub":{"b":"y"},"i32s":[3]}` + " \r\n\t", true},

		// Leniencies and errors that are encoding/json's alone.
		{``, false},
		{` {}`, false},
		{`{ }`, false},
		{`{"n": 1}`, false},
		{`{"n" :1}`, false},
		{`{"n":1 }`, false},
		{`{"n":1} x`, false},
		{`{"n":1}{`, false},
		{`[]`, false},
		{`{`, false},
		{`{"n":1`, false},
		{`{"n":1,`, false},
		{`{"n":1,}`, false},
		{`{,"n":1}`, false},
		{`{"n":1 "u":2}`, false},
		{`{"n":1,"n":2}`, false},
		{`{"N":1}`, false},
		{`{"x":1}`, false},
		{`{"n\u0000":1}`, false},
		{`{"n`, false},
		{`{"n"`, false},
		{`{"n"}`, false},
		{`{n:1}`, false},
		{`{"n":null}`, false},
		{`{"n":true}`, false},
		{`{"n":}`, false},
		{`{"n":-}`, false},
		{`{"n":+1}`, false},
		{`{"n":01}`, false},
		{`{"n":1.0}`, false},
		{`{"n":1e2}`, false},
		{`{"n":1E2}`, false},
		{`{"n":9223372036854775808}`, false},
		{`{"n":-9223372036854775809}`, false},
		{`{"n":99999999999999999999}`, false},
		{`{"u":-1}`, false},
		{`{"u":-0}`, false},
		{`{"u":18446744073709551616}`, false},
		{`{"u":"1"}`, false},
		{`{"s":1}`, false},
		{`{"s":null}`, false},
		{`{"s":"open`, false},
		{"{\"s\":\"tab\t\"}", false},
		{`{"s":"\`, false},
		{`{"s":"\/"}`, false},
		{`{"s":"\x"}`, false},
		{`{"s":"\u12"}`, false},
		{`{"s":"\u12`, false},
		{`{"s":"\u12g4"}`, false},
		{`{"s":"\ud83d\ude00"}`, false},
		{`{"s":"\udc00"}`, false},
		{"{\"s\":\"\xff\"}", false},
		{"{\"s\":\"a\xe2\x80\"}", false},
		{`{"strs":null}`, false},
		{`{"strs":["a",]}`, false},
		{`{"strs":["a" "b"]}`, false},
		{`{"strs":[1]}`, false},
		{`{"strs":["a"`, false},
		{`{"i32s":null}`, false},
		{`{"i32s":[1,]}`, false},
		{`{"i32s":[1`, false},
		{`{"i32s":1}`, false},
		{`{"i32s":[2147483648]}`, false},
		{`{"i32s":[-2147483649]}`, false},
		{`{"i32s":[1.5]}`, false},
		{`{"rows":[null]}`, false},
		{`{"rows":[["a"],]}`, false},
		{`{"sub":null}`, false},
		{`{"sub":[]}`, false},
		{`{"sub":{"a":[}`, false},
		{`{"sub":{"b":"\`, false},
		{`{"sub":{"a":]}}`, false},
		{`{"sub":{"b":1}}`, false},
	} {
		if plain := checkReader(t, []byte(tc.doc)); plain != tc.plain {
			t.Errorf("%q: plain = %v, want %v", tc.doc, plain, tc.plain)
		}
	}
}

// TestReaderReadsWhatTheWriterWrites: the two halves of the package meet — a
// compact Writer's output is plain whatever the strings hold, and reads back
// to what encoding/json reads from it (invalid UTF-8 went out as U+FFFD).
func TestReaderReadsWhatTheWriterWrites(t *testing.T) {
	var hard []string
	for b := 0; b < 256; b++ {
		hard = append(hard, "a"+string([]byte{byte(b)})+"z")
	}
	hard = append(hard, "", `<>&"\`, "\u2028x\u2029", "\ufffd", "日本語", "\U0001F600", "\xe2\x80", "\xed\xa0\x80", strings.Repeat("<\x00\u2028\xff", 50))
	w := Compact(nil)
	w.Open('{')
	w.Key("n")
	w.Int(math.MinInt64)
	w.Key("u")
	w.Uint(math.MaxUint64)
	w.Key("s")
	w.String(strings.Join(hard, ""))
	w.Key("strs")
	w.Strings(hard)
	w.Key("i32s")
	Ints(&w, []int32{0, -1, math.MaxInt32, math.MinInt32})
	w.Key("rows")
	w.Open('[')
	for _, row := range [][]string{hard[:3], {}, hard[250:]} {
		w.Elem()
		w.Strings(row)
	}
	w.Close(']')
	w.Close('}')
	if !checkReader(t, w.Buf) {
		t.Fatalf("the reader does not call the writer's output plain: %s", w.Buf)
	}
}

// TestReaderUnderMutation is the fuzzer's argument made deterministic: every
// one-byte deletion, insertion and replacement of a document that uses every
// call, with the bytes JSON gives a meaning to, still satisfies the contract.
func TestReaderUnderMutation(t *testing.T) {
	seed := []byte(`{"n":-10,"u":20,"s":"aé\n","strs":["x","é"],"i32s":[0,-1,12],"rows":[["p"],[]],"sub":{"a":[1,{"k":"]"}],"b":"q"}}`)
	if !checkReader(t, seed) {
		t.Fatal("the seed is not plain")
	}
	alphabet := []byte("{}[]\",:\\-+.0129eEunftx \n\x00\x1f\xff\xc3")
	mutant := make([]byte, 0, len(seed)+1)
	for i := range seed {
		checkReader(t, append(append(mutant[:0], seed[:i]...), seed[i+1:]...))
		checkReader(t, seed[:i])
		for _, b := range alphabet {
			checkReader(t, append(append(append(mutant[:0], seed[:i]...), b), seed[i:]...))
			checkReader(t, append(append(append(mutant[:0], seed[:i]...), b), seed[i+1:]...))
		}
	}
}

// TestReaderOwnsItsStrings: a string the Reader returns survives the document
// being overwritten — it is memory of its own, escaped or not — so what keeps
// a value never keeps the buffer it arrived in.
func TestReaderOwnsItsStrings(t *testing.T) {
	doc := []byte(`{"s":"direct","strs":["one","tw\no"]}`)
	d, plain := readDoc(doc)
	for i := range doc {
		doc[i] = '#'
	}
	if !plain || d.S != "direct" || d.Strs[0] != "one" || d.Strs[1] != "tw\no" {
		t.Fatalf("strings changed with the document: %+v", d)
	}
}

// TestReaderLatches: after the first departure nothing moves and nothing is
// returned, whatever is called.
func TestReaderLatches(t *testing.T) {
	r := Read([]byte(`{"n":1}`))
	r.Fail()
	var seen uint32
	r.Open('{')
	if r.More('}') || r.Key(&seen, "n") != "" || r.Int() != 0 || r.Uint() != 0 || r.String() != "" ||
		len(r.Strings()) != 0 || r.Int32s() != nil || r.Object() != nil || r.Plain() || r.pos != 0 {
		t.Fatalf("a failed reader still reads: %+v", r)
	}
}
