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
	"strconv"
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
func (w *Writer) Int(v int64) { w.Buf = strconv.AppendInt(w.Buf, v, 10) }

// Uint writes an unsigned number.
func (w *Writer) Uint(v uint64) { w.Buf = strconv.AppendUint(w.Buf, v, 10) }

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

// Ints writes an array of integers of any width or signedness; a nil slice is
// null.
func Ints[T ~int | ~int32 | ~int64 | ~uint64](w *Writer, v []T) {
	if v == nil {
		w.Null()
		return
	}
	w.Open('[')
	// The one loop that runs a hundred thousand times per reply: the buffer
	// stays in a local, and the comma is decided by position.
	buf := w.Buf
	for i, x := range v {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, w.nl...)
		if x < 0 {
			buf = strconv.AppendInt(buf, int64(x), 10)
		} else {
			buf = strconv.AppendUint(buf, uint64(x), 10)
		}
	}
	w.Buf = buf
	w.Close(']')
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
