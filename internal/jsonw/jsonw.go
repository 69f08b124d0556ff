// Package jsonw writes and reads JSON in one pass over a byte slice, without
// reflection, for the few documents whose size makes encoding/json the
// bottleneck; everything else stays on encoding/json, which is also the oracle
// the tests hold both halves to.
//
// The Writer produces byte for byte what encoding/json produces for the same
// value: json.Marshal's output in compact mode, json.Encoder's under
// SetIndent("", "  ") in indented mode (minus the newline Encode adds after
// the value). It is under the bulk /v1 replies (cluster/docs.go), the
// compacted snapshot and the write-ahead-log records (violation/persist.go).
// A Writer knows its nesting depth and nothing else: whether a comma is due
// is read off the last byte written (an opening bracket means "first member"),
// so a document's encoder is a flat sequence of Key/Elem and value calls with
// its omitempty rules as plain ifs.
//
// The Reader (reader.go) is its mirror image and reads exactly what a compact
// Writer writes — the POST /v1/batch body, a WAL record, the snapshot — to the
// value encoding/json decodes from the same bytes. It does not try to be a
// JSON parser: for any other document it answers "not plain", and the decoder
// built on it hands the same bytes to the encoding/json call it stands in
// front of, which stays the single definition of leniency and the only author
// of an error message.
package jsonw

import (
	"slices"
	"unicode/utf8"
)

// pad is a newline followed by indentation; its prefixes are what
// json.Indent writes before a value at each depth.
const pad = "\n                                "

// Writer appends one JSON value to Buf.
type Writer struct {
	Buf []byte
	// nl is the line break before a member at the current depth: "\n" plus two
	// spaces per open bracket, or "" throughout in compact mode.
	nl string
}

// Compact returns a writer appending to dst with no whitespace at all.
func Compact(dst []byte) Writer { return Writer{Buf: dst} }

// Indented returns a writer appending to dst with one member per line and a
// two-space indent per level.
func Indented(dst []byte) Writer { return Writer{Buf: dst, nl: pad[:1]} }

// Open starts an object ('{') or an array ('[').
func (w *Writer) Open(bracket byte) {
	w.Buf = append(w.Buf, bracket)
	if w.nl == "" {
		return
	}
	if len(w.nl)+2 <= len(pad) {
		w.nl = pad[:len(w.nl)+2]
	} else {
		w.nl += "  "
	}
}

// Close ends the innermost object ('}') or array (']'). An empty one closes
// on the line it opened on, as {} or [].
func (w *Writer) Close(bracket byte) {
	if w.nl != "" {
		w.nl = w.nl[:len(w.nl)-2]
		if !w.first() {
			w.Buf = append(w.Buf, w.nl...)
		}
	}
	w.Buf = append(w.Buf, bracket)
}

// first reports whether nothing has been written since the innermost Open.
// No value ends in an opening bracket — strings end in a quote — so the last
// byte decides it.
func (w *Writer) first() bool {
	last := w.Buf[len(w.Buf)-1]
	return last == '[' || last == '{'
}

// Elem starts the next element of the open array: the separating comma and
// the line break. The element's value follows.
func (w *Writer) Elem() {
	if !w.first() {
		w.Buf = append(w.Buf, ',')
	}
	w.Buf = append(w.Buf, w.nl...)
}

// Key starts the next member of the open object. name is written as is: it
// must be a literal that needs no escaping.
func (w *Writer) Key(name string) {
	w.Elem()
	w.Buf = append(w.Buf, '"')
	w.Buf = append(w.Buf, name...)
	if w.nl == "" {
		w.Buf = append(w.Buf, '"', ':')
	} else {
		w.Buf = append(w.Buf, '"', ':', ' ')
	}
}

// Int writes a signed number.
func (w *Writer) Int(v int64) { w.Buf = appendInt(w.Buf, v) }

// Uint writes an unsigned number.
func (w *Writer) Uint(v uint64) { w.Buf = appendInt(w.Buf, v) }

// Null writes null — what encoding/json writes for a nil slice or pointer.
func (w *Writer) Null() { w.Buf = append(w.Buf, "null"...) }

// Raw writes an already encoded value. In indented mode it must be a scalar.
func (w *Writer) Raw(v []byte) { w.Buf = append(w.Buf, v...) }

// String writes s as a string literal.
func (w *Writer) String(s string) { w.Buf = appendString(w.Buf, s) }

// Strings writes an array of strings; a nil slice is null.
func (w *Writer) Strings(v []string) {
	if v == nil {
		w.Null()
		return
	}
	w.Open('[')
	for _, s := range v {
		w.Elem()
		w.Buf = appendString(w.Buf, s)
	}
	w.Close(']')
}

// integer is every element type Ints writes: any width or signedness.
type integer interface {
	~int | ~int32 | ~int64 | ~uint64
}

// Ints writes an array of integers; a nil slice is null.
func Ints[T integer](w *Writer, v []T) {
	if v == nil {
		w.Null()
		return
	}
	w.Open('[')
	if len(v) > 0 {
		w.Buf = appendInt(append(w.Buf, w.nl...), v[0])
		w.Buf = appendElems(w.Buf, w.nl, v[1:])
	}
	w.Close(']')
}

// IntsReusing writes v as Ints does, given prev and prevJSON: a list and
// its encoding by Ints at the same depth of a writer in the same mode, or no
// bytes when there is no earlier list. What the two lists share is copied
// from prevJSON instead of encoded again — all of it when v is prev (the same
// elements of the same array, or both nil), otherwise the elements up to the
// first one that differs — and only the rest of v is encoded. It returns the
// number of bytes copied. Ids are assigned in ascending order, so the usual
// edit to a sorted id list is at its end, and the prefix is most of the list.
//
// Equal elements are only proven equal when prev has not changed since
// prevJSON was written: a caller keeps prev, the slice itself, next to its
// encoding, and never writes to it.
func IntsReusing[T integer](w *Writer, v, prev []T, prevJSON []byte) (reused int) {
	if len(prevJSON) == 0 {
		Ints(w, v)
		return 0
	}
	if (v == nil) == (prev == nil) && len(v) == len(prev) && (len(v) == 0 || &v[0] == &prev[0]) {
		w.Buf = append(w.Buf, prevJSON...)
		return len(prevJSON)
	}
	k := 0
	for k < len(v) && k < len(prev) && v[k] == prev[k] {
		k++
	}
	if k == 0 {
		Ints(w, v)
		return 0
	}
	// prevJSON up to the end of element k-1: walking back from the closing
	// bracket — the changed part is usually the tail — past the comma before
	// each element from k on, then past the line break before the bracket
	// when there was none. Numbers hold no commas, indents no digits.
	cut := len(prevJSON)
	for n := len(prev) - k; n > 0; {
		cut--
		if prevJSON[cut] == ',' {
			n--
		}
	}
	for prevJSON[cut-1] < '0' || prevJSON[cut-1] > '9' {
		cut--
	}
	w.Open('[')
	w.Buf = appendElems(append(w.Buf, prevJSON[1:cut]...), w.nl, v[k:])
	w.Close(']')
	return cut
}

// appendElems appends v as the elements of an array that already holds at
// least one: each after a comma and the line break nl. It is the loop that
// runs once per id of a bulk reply, so it reserves room once per chunk of
// elements and then writes bytes by index, the digits two at a time.
func appendElems[T integer](buf []byte, nl string, v []T) []byte {
	const chunk = 256
	for len(v) > 0 {
		c := v[:min(len(v), chunk)]
		v = v[len(c):]
		// Per element: the comma, nl, a sign and up to 20 digits.
		buf = slices.Grow(buf, len(c)*(len(nl)+22))
		b, n := buf[:cap(buf)], len(buf)
		for _, x := range c {
			b[n] = ','
			n += 1 + copy(b[n+1:], nl)
			u := uint64(x)
			if x < 0 {
				b[n] = '-'
				n++
				u = -u
			}
			n += digitCount(u)
			putDigits(b[:n], u)
		}
		buf = b[:n]
	}
	return buf
}

// appendInt appends one number.
func appendInt[T integer](dst []byte, x T) []byte {
	u := uint64(x)
	if x < 0 {
		dst = append(dst, '-')
		u = -u
	}
	n := len(dst) + digitCount(u)
	dst = slices.Grow(dst, n-len(dst))[:n]
	putDigits(dst, u)
	return dst
}

// digitCount returns the number of decimal digits of u.
func digitCount(u uint64) int {
	n := 1
	for p := uint64(10); n < 20 && u >= p; p *= 10 {
		n++
	}
	return n
}

// twoDigits is "00" to "99" back to back.
const twoDigits = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// putDigits writes the decimal digits of u at the end of b, which has room
// for exactly digitCount(u) of them there.
func putDigits(b []byte, u uint64) {
	i := len(b)
	for u >= 100 {
		r := u % 100 * 2
		u /= 100
		i -= 2
		b[i], b[i+1] = twoDigits[r], twoDigits[r+1]
	}
	if u >= 10 {
		b[i-2], b[i-1] = twoDigits[2*u], twoDigits[2*u+1]
	} else {
		b[i-1] = byte('0' + u)
	}
}

const hex = "0123456789abcdef"

// appendString appends s as a JSON string literal with encoding/json's
// default escaping: the two-character escapes for quote, backslash and
// \b \f \n \r \t; \u00XX for the other control characters and for < > &
// (the HTML-safe set); \u2028 and \u2029 for the line and paragraph
// separators; \ufffd for each byte of invalid UTF-8. Everything else,
// including DEL and all other non-ASCII text, is copied through.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
