// Package dataset provides the data substrate of the reproduction: CSV
// loading and saving, the synthetic Tax generator parameterised by ARITY,
// DBSIZE and the correlation factor CF (§6.1 of the paper), synthetic
// stand-ins for the UCI Wisconsin breast cancer and Chess data sets used in
// the paper's real-data experiments, and noise injection for the data-cleaning
// examples.
package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/cfd"
)

// ReadCSV reads a relation from CSV. When header is true the first record
// provides the attribute names; otherwise attributes are named A1, A2, ...
//
// The input is streamed through a fixed read buffer: complete lines are
// consumed, the partial last line is carried over to the next read, so peak
// memory is the encoded relation plus one buffer — never the file. Each field
// is interned as bytes straight from the buffer (core.Dict.EncodeBytes), so a
// value costs a string the first time it is seen and nothing after; codes are
// assigned per attribute in first-seen order, row by row.
//
// The reader accepts what encoding/csv accepts, with its defaults: records
// end at "\n" or "\r\n" (one "\r" before the line end — or before the end of
// the input — is dropped), empty lines are skipped, every other line is split
// at its commas. That is done here as long as the input holds no double
// quote. From the line with the first `"` on, the rest of the input goes
// through an encoding/csv reader (quoted fields, embedded newlines, its parse
// errors, reported under the input's own line numbers).
func ReadCSV(r io.Reader, header bool) (*cfd.Relation, error) {
	l := loader{header: header}
	buf := make([]byte, readBufSize)
	end := 0 // buf[:end] is unconsumed and starts at the start of a line
	for {
		n, rerr := r.Read(buf[end:])
		fresh := buf[end : end+n]
		end += n
		if q := bytes.IndexByte(fresh, '"'); q >= 0 {
			start := bytes.LastIndexByte(buf[:end-n+q], '\n') + 1
			if err := l.lines(buf[:start]); err != nil {
				return nil, err
			}
			if err := l.quoted(io.MultiReader(bytes.NewReader(buf[start:end]), r)); err != nil {
				return nil, err
			}
			break
		}
		if nl := bytes.LastIndexByte(fresh, '\n'); nl >= 0 {
			stop := end - n + nl + 1
			if err := l.lines(buf[:stop]); err != nil {
				return nil, err
			}
			end = copy(buf, buf[stop:end])
		}
		if rerr == io.EOF {
			if err := l.lines(buf[:end]); err != nil { // the last line had no "\n"
				return nil, err
			}
			break
		}
		if rerr != nil {
			return nil, fmt.Errorf("dataset: reading csv: %w", rerr)
		}
		if end == len(buf) { // a line longer than the buffer
			buf = append(buf, make([]byte, len(buf))...)
		}
	}
	if l.rel == nil {
		return nil, fmt.Errorf("dataset: empty csv input")
	}
	return l.rel, nil
}

const readBufSize = 64 << 10

// loader is the state ReadCSV's two paths share: the relation, created from
// the first record, and the number of the last data row.
type loader struct {
	header bool
	rel    *cfd.Relation
	row    int      // data rows so far, 1-based in error messages
	skip   int      // input lines consumed before the encoding/csv reader took over
	fields [][]byte // scratch: the fields of one line
}

// lines consumes b, which starts at the start of a line, holds no quote and
// (but for the end of the input) ends with a line end.
func (l *loader) lines(b []byte) error {
	if l.rel != nil {
		// Columns double from the rows of the first buffer on.
		l.rel.Encoded().Reserve(bytes.Count(b, []byte{'\n'}) + 1)
	}
	for len(b) > 0 {
		line := b
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			line, b = b[:i], b[i+1:]
			l.skip++
		} else {
			b = nil
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue
		}
		fields := l.fields[:0]
		for {
			i := bytes.IndexByte(line, ',')
			if i < 0 {
				break
			}
			fields = append(fields, line[:i])
			line = line[i+1:]
		}
		fields = append(fields, line)
		l.fields = fields
		if l.rel == nil {
			first := make([]string, len(fields))
			for i, f := range fields {
				first[i] = string(f)
			}
			if err := l.record(first); err != nil {
				return err
			}
			continue
		}
		if err := l.next(len(fields)); err != nil {
			return err
		}
		if err := l.rel.Encoded().AppendRowBytes(fields); err != nil {
			return fmt.Errorf("dataset: row %d: %w", l.row, err)
		}
	}
	return nil
}

// quoted consumes the rest of the input, from the first line that holds a
// quote, through encoding/csv.
func (l *loader) quoted(r io.Reader) error {
	reader := csv.NewReader(r)
	reader.FieldsPerRecord = -1
	reader.ReuseRecord = true
	for {
		record, err := reader.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			var perr *csv.ParseError
			if errors.As(err, &perr) {
				perr.StartLine += l.skip
				perr.Line += l.skip
			}
			return fmt.Errorf("dataset: reading csv: %w", err)
		}
		if err := l.record(record); err != nil {
			return err
		}
	}
}

// record takes one record as strings: the first names the attributes (or,
// without a header, has them named A1, A2, ... and is the first row).
func (l *loader) record(record []string) error {
	if l.rel == nil {
		names := record
		if !l.header {
			names = make([]string, len(record))
			for i := range names {
				names[i] = fmt.Sprintf("A%d", i+1)
			}
		}
		rel, err := cfd.NewRelation(names...)
		if err != nil {
			return err
		}
		l.rel = rel
		if l.header {
			return nil
		}
	}
	if err := l.next(len(record)); err != nil {
		return err
	}
	if err := l.rel.Append(record...); err != nil {
		return fmt.Errorf("dataset: row %d: %w", l.row, err)
	}
	return nil
}

// next counts a data row of n fields in, or refuses it.
func (l *loader) next(n int) error {
	l.row++
	if want := l.rel.Arity(); n != want {
		return fmt.Errorf("dataset: row %d has %d fields, want %d", l.row, n, want)
	}
	return nil
}

// WriteCSV writes the relation as CSV with a header row.
func WriteCSV(w io.Writer, rel *cfd.Relation) error {
	writer := csv.NewWriter(w)
	if err := writer.Write(rel.Attributes()); err != nil {
		return fmt.Errorf("dataset: writing csv header: %w", err)
	}
	for i := 0; i < rel.Size(); i++ {
		if err := writer.Write(rel.Row(i)); err != nil {
			return fmt.Errorf("dataset: writing csv row %d: %w", i, err)
		}
	}
	writer.Flush()
	return writer.Error()
}

// LoadCSVFile reads a relation from a CSV file with a header row.
func LoadCSVFile(path string) (*cfd.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, true)
}

// SaveCSVFile writes a relation to a CSV file with a header row.
func SaveCSVFile(path string, rel *cfd.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(f, rel); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Cust returns the 8-tuple cust relation of Fig. 1 of the paper, which the
// quickstart example and several tests use.
func Cust() *cfd.Relation {
	rel := cfd.MustRelation("CC", "AC", "PN", "NM", "STR", "CT", "ZIP")
	rows := [][]string{
		{"01", "908", "1111111", "Mike", "Tree Ave.", "MH", "07974"},
		{"01", "908", "1111111", "Rick", "Tree Ave.", "MH", "07974"},
		{"01", "212", "2222222", "Joe", "5th Ave", "NYC", "01202"},
		{"01", "908", "4444444", "Jim", "Elm Str.", "MH", "07974"},
		{"44", "131", "3333333", "Ben", "High St.", "EDI", "EH4 1DT"},
		{"44", "131", "4444444", "Ian", "High St.", "EDI", "EH4 1DT"},
		{"44", "908", "4444444", "Ian", "Port PI", "MH", "01202"},
		{"01", "131", "2222222", "Sean", "3rd Str.", "UN", "01202"},
	}
	for _, row := range rows {
		if err := rel.Append(row...); err != nil {
			panic(err)
		}
	}
	return rel
}
