package jsonw

import (
	"bytes"
	"math"
	"unicode/utf8"
)

// Reader is a cursor over one JSON document that reads what a compact Writer
// writes and nothing else. Plain, here, means: no whitespace before or inside
// the value (any amount after it); objects whose keys are the exact names the
// decoder asks for, in any order, each at most once; strings in valid UTF-8
// with the escapes appendString writes (the two-character ones except \/, and
// \uXXXX for anything but a surrogate half); integers without fraction or
// exponent that fit their type; no null, true or false anywhere.
//
// The first departure latches: every later call returns a zero value without
// moving, More reports false so loops end, and Plain answers false. A decoder
// is therefore a flat sequence of calls with one check at the end — and on
// false it hands the same bytes to encoding/json, which stays the only
// definition of what else is accepted and of every error message. What the
// Reader does accept it decodes exactly as encoding/json does.
//
// Nothing a Reader returns aliases the document except the result of Object.
type Reader struct {
	doc     []byte
	pos     int
	odd     bool   // the document is not plain
	scratch []byte // the text of the string, or array of strings, being read
	ends    []int  // where each string of the array ends in scratch
}

// Read returns a reader at the start of doc.
func Read(doc []byte) Reader { return Reader{doc: doc} }

// Fail marks the document as not plain — for a decoder's own conditions, such
// as a member its document requires.
func (r *Reader) Fail() { r.odd = true }

// Plain reports whether everything read was plain and only whitespace follows.
func (r *Reader) Plain() bool {
	if r.odd {
		return false
	}
	for _, b := range r.doc[r.pos:] {
		if b != ' ' && b != '\n' && b != '\r' && b != '\t' {
			return false
		}
	}
	return true
}

// peek returns the byte at the cursor, or 0 at the end of the document and
// once it has failed. A zero byte is plain nowhere, so callers need not tell
// the two apart.
func (r *Reader) peek() byte {
	if r.odd || r.pos >= len(r.doc) {
		return 0
	}
	return r.doc[r.pos]
}

// Open enters an object ('{') or an array ('[').
func (r *Reader) Open(bracket byte) {
	if r.peek() != bracket {
		r.odd = true
		return
	}
	r.pos++
}

// More reports whether another member or element precedes the bracket that
// closes the innermost object ('}') or array (']'), and moves past the comma
// before it or past the bracket: for r.Open('['); r.More(']'); { … } visits
// every element. As in the Writer, the byte before the cursor says whether
// this is the first one: no value ends in an opening bracket.
func (r *Reader) More(bracket byte) bool {
	switch b := r.peek(); {
	case b == bracket:
		r.pos++
		return false
	case r.odd:
		return false
	case r.doc[r.pos-1] == '[' || r.doc[r.pos-1] == '{':
		return true
	case b == ',':
		r.pos++
		return true
	}
	r.odd = true
	return false
}

// Key reads the name of the next member and its colon. The name must be one
// of names as written — no escapes, no other case — and must not have been
// read before in this object: seen, zero when the object is opened, holds one
// bit per name. It returns the name, or "" with the document failed, so a
// switch over the result needs no default.
func (r *Reader) Key(seen *uint32, names ...string) string {
	if r.peek() != '"' {
		r.odd = true
		return ""
	}
	rest := r.doc[r.pos+1:]
	end := bytes.IndexByte(rest, '"')
	if end < 0 || end+1 >= len(rest) || rest[end+1] != ':' {
		r.odd = true
		return ""
	}
	for i, name := range names {
		if string(rest[:end]) == name && *seen&(1<<i) == 0 {
			*seen |= 1 << i
			r.pos += end + 3
			return name
		}
	}
	r.odd = true
	return ""
}

// String reads a string into memory of its own.
func (r *Reader) String() string {
	r.scratch = r.text(r.scratch[:0])
	return string(r.scratch)
}

// text reads a string and appends what it holds, unescaped, to dst.
func (r *Reader) text(dst []byte) []byte {
	if r.peek() != '"' {
		r.odd = true
		return dst
	}
	doc := r.doc
	start := r.pos + 1 // of the bytes not yet appended
	for i := start; i < len(doc); {
		switch b := doc[i]; {
		case b == '"':
			r.pos = i + 1
			return append(dst, doc[start:i]...)
		case b == '\\':
			var n int
			if dst, n = unescape(append(dst, doc[start:i]...), doc[i:]); n == 0 {
				r.odd = true
				return dst
			}
			i += n
			start = i
		case b < ' ':
			r.odd = true
			return dst
		case b < utf8.RuneSelf:
			i++
		default:
			// encoding/json replaces each byte of invalid UTF-8 with U+FFFD;
			// that is its business.
			c, size := utf8.DecodeRune(doc[i:])
			if c == utf8.RuneError && size == 1 {
				r.odd = true
				return dst
			}
			i += size
		}
	}
	r.odd = true // no closing quote
	return dst
}

// unescape appends the character the escape sequence at the start of src
// stands for and returns the sequence's length, 0 for one that is not plain.
func unescape(dst, src []byte) ([]byte, int) {
	if len(src) < 2 {
		return dst, 0
	}
	switch c := src[1]; c {
	case '"', '\\':
		return append(dst, c), 2
	case 'b':
		return append(dst, '\b'), 2
	case 'f':
		return append(dst, '\f'), 2
	case 'n':
		return append(dst, '\n'), 2
	case 'r':
		return append(dst, '\r'), 2
	case 't':
		return append(dst, '\t'), 2
	case 'u':
		if len(src) < 6 {
			return dst, 0
		}
		var c rune
		for _, h := range src[2:6] {
			switch {
			case '0' <= h && h <= '9':
				c = c<<4 | rune(h-'0')
			case 'a' <= h && h <= 'f':
				c = c<<4 | rune(h-'a'+10)
			case 'A' <= h && h <= 'F':
				c = c<<4 | rune(h-'A'+10)
			default:
				return dst, 0
			}
		}
		if utf8.ValidRune(c) { // not half of a surrogate pair
			return utf8.AppendRune(dst, c), 6
		}
	}
	return dst, 0
}

// Uint reads an unsigned number: 0, or digits without a leading zero, neither
// fraction nor exponent after them, below 2^64.
func (r *Reader) Uint() uint64 {
	start := r.pos
	var v uint64
	for b := r.peek(); '0' <= b && b <= '9'; b = r.peek() {
		d := uint64(b - '0')
		if v > (math.MaxUint64-d)/10 {
			r.odd = true
			return 0
		}
		v = v*10 + d
		r.pos++
	}
	n := r.pos - start
	if b := r.peek(); n == 0 || (n > 1 && r.doc[start] == '0') || b == '.' || b == 'e' || b == 'E' {
		r.odd = true
		return 0
	}
	return v
}

// Int reads a signed number that fits an int.
func (r *Reader) Int() int {
	if r.peek() == '-' {
		r.pos++
		if v := r.Uint(); v <= -math.MinInt {
			return -int(v)
		}
	} else if v := r.Uint(); v <= math.MaxInt {
		return int(v)
	}
	r.odd = true
	return 0
}

// Strings reads an array of strings, never nil. The strings share one
// allocation: what keeps one of them keeps the array's text, never the
// document.
func (r *Reader) Strings() []string {
	text, ends := r.scratch[:0], r.ends[:0]
	for r.Open('['); r.More(']'); {
		text = r.text(text)
		ends = append(ends, len(text))
	}
	r.scratch, r.ends = text, ends
	out := make([]string, len(ends))
	all, start := string(text), 0
	for i, end := range ends {
		out[i] = all[start:end]
		start = end
	}
	return out
}

// Int32s reads an array of 32-bit integers, never nil.
func (r *Reader) Int32s() []int32 {
	r.Open('[')
	// Sized by the commas before the next closing bracket: bytes that are
	// there, never a number the document names.
	end := bytes.IndexByte(r.doc[r.pos:], ']')
	if r.odd || end < 0 {
		r.odd = true
		return nil
	}
	out := make([]int32, 0, bytes.Count(r.doc[r.pos:r.pos+end], []byte{','})+1)
	for r.More(']') {
		v := r.Int()
		if v < math.MinInt32 || v > math.MaxInt32 {
			r.odd = true
		}
		out = append(out, int32(v))
	}
	return out
}

// Object returns the bytes of the object at the cursor — a member that has a
// decoder of its own — and moves past it. Only what finding its end takes is
// checked, brackets outside strings pairing up: the bytes are the whole object
// whenever they are valid JSON at all, so the decoder they go to must reject
// invalid JSON, as json.Unmarshal does. The result aliases the document.
func (r *Reader) Object() []byte {
	if r.peek() != '{' {
		r.odd = true
		return nil
	}
	depth, quoted := 0, false
	for i := r.pos; i < len(r.doc); i++ {
		switch b := r.doc[i]; {
		case quoted:
			if b == '\\' {
				i++
			} else if b == '"' {
				quoted = false
			}
		case b == '"':
			quoted = true
		case b == '{' || b == '[':
			depth++
		case b == '}' || b == ']':
			if depth--; depth == 0 {
				obj := r.doc[r.pos : i+1]
				r.pos = i + 1
				return obj
			}
		}
	}
	r.odd = true
	return nil
}
