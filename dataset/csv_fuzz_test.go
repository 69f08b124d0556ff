package dataset_test

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"repro/cfd"
	"repro/dataset"
)

// referenceReadCSV is the reader ReadCSV replaced — encoding/csv records
// appended as strings — kept as the definition the byte path is held to.
func referenceReadCSV(r io.Reader, header bool) (*cfd.Relation, error) {
	reader := csv.NewReader(r)
	reader.FieldsPerRecord = -1
	reader.ReuseRecord = true
	first, err := reader.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("dataset: empty csv input")
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: reading csv: %w", err)
	}
	var names []string
	if header {
		names = append(names, first...)
	} else {
		names = make([]string, len(first))
		for i := range names {
			names[i] = fmt.Sprintf("A%d", i+1)
		}
	}
	rel, err := cfd.NewRelation(names...)
	if err != nil {
		return nil, err
	}
	row := 0
	if !header {
		if err := rel.Append(first...); err != nil {
			return nil, fmt.Errorf("dataset: row 1: %w", err)
		}
		row = 1
	}
	for {
		record, err := reader.Read()
		if err == io.EOF {
			return rel, nil
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading csv: %w", err)
		}
		row++
		if len(record) != len(names) {
			return nil, fmt.Errorf("dataset: row %d has %d fields, want %d", row, len(record), len(names))
		}
		if err := rel.Append(record...); err != nil {
			return nil, fmt.Errorf("dataset: row %d: %w", row, err)
		}
	}
}

// sevenByteReader hands out at most seven bytes per Read.
type sevenByteReader struct{ r io.Reader }

func (s sevenByteReader) Read(p []byte) (int, error) {
	return s.r.Read(p[:min(len(p), 7)])
}

// sameLoad fails unless ReadCSV(r) is what the reference made of the same
// input: attribute names, every dictionary in order, every column, or the
// same error text.
func sameLoad(t *testing.T, how string, r io.Reader, header bool, want *cfd.Relation, wantErr error) {
	t.Helper()
	got, err := dataset.ReadCSV(r, header)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s, header=%v: err = %v, reference %v", how, header, err, wantErr)
	}
	if err != nil {
		if got != nil {
			t.Fatalf("%s, header=%v: a relation beside error %v", how, header, err)
		}
		return
	}
	if !slices.Equal(got.Attributes(), want.Attributes()) {
		t.Fatalf("%s, header=%v: attributes %q, reference %q", how, header, got.Attributes(), want.Attributes())
	}
	gotDicts, gotCols := got.Encoded().Raw()
	wantDicts, wantCols := want.Encoded().Raw()
	for a := range wantDicts {
		if !slices.Equal(gotDicts[a], wantDicts[a]) {
			t.Fatalf("%s, header=%v: dictionary %d = %q, reference %q", how, header, a, gotDicts[a], wantDicts[a])
		}
		if !slices.Equal(gotCols[a], wantCols[a]) {
			t.Fatalf("%s, header=%v: column %d = %v, reference %v", how, header, a, gotCols[a], wantCols[a])
		}
	}
	if got.Size() != want.Size() {
		t.Fatalf("%s, header=%v: %d rows, reference %d", how, header, got.Size(), want.Size())
	}
}

// checkAgainstReference holds ReadCSV to the reference on one input, read
// whole and in one- and seven-byte pieces: a chunk boundary inside a field,
// between "\r" and "\n" or inside a quoted field must not show.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	for _, header := range []bool{true, false} {
		want, wantErr := referenceReadCSV(bytes.NewReader(data), header)
		sameLoad(t, "whole", bytes.NewReader(data), header, want, wantErr)
		sameLoad(t, "one byte a read", iotest.OneByteReader(bytes.NewReader(data)), header, want, wantErr)
		sameLoad(t, "seven bytes a read", sevenByteReader{bytes.NewReader(data)}, header, want, wantErr)
		sameLoad(t, "data with EOF", iotest.DataErrReader(bytes.NewReader(data)), header, want, wantErr)
	}
}

var csvSeeds = []string{
	"",
	"A,B\n",
	"A,B",
	"A,B\n1,2\n3,4\n",
	"A,B\r\n1,2\r\n3,4\r\n",
	"A,B\n1,2\r",
	"\r",
	"A,B\n\r",
	"\r\r\n",
	"a\rb,c\n",
	"\n\nA,B\n\n1,2\n\r\n\n3,4\n\n",
	"A,B\n1\n",
	"A,B\n1,2,3\n",
	"A,B\n1,2\n\"x\",3\n4\n",
	"A,B\n4\n\"x\",3\n",
	"A,B\n\"multi\nline\",\"with,comma\"\n1,2\n",
	"A,B\n\"multi\r\nline\",2\r\n",
	"A,B\n1,\"\n",
	"A,B\n1,2\n\n3,x\"y\n",
	"\"A\",\"B\"\n1,2\n",
	"A,B\n1,\"he said \"\"hi\"\"\"\n",
	"A,B\n1,\"open\n2,3\n",
	"A,A\n1,2\n",
	",\n1,2\n",
	" a , b \n 1 , 2 \n",
	"A,B\n1,2\n1,2\n1,3\n,\n,\n",
	"A\n\xff\xfe\n\x00\n",
	"x1,a b\nab,x1\n",
}

func FuzzReadCSV(f *testing.F) {
	for _, seed := range csvSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
	})
}

// TestReadCSVRandomSmallInputs sweeps seeded random strings over an alphabet
// made of everything the reader treats specially.
func TestReadCSVRandomSmallInputs(t *testing.T) {
	const alphabet = "ab,\n\r\" x1"
	n := 10000
	if testing.Short() {
		n = 1000
	}
	state := uint64(1)
	next := func(bound int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state >> 33 % uint64(bound))
	}
	for i := 0; i < n; i++ {
		data := make([]byte, next(24))
		for j := range data {
			data[j] = alphabet[next(len(alphabet))]
		}
		checkAgainstReference(t, data)
	}
}

// TestReadCSVAcrossBuffers covers what only an input larger than the read
// buffer reaches: lines carried over from one buffer to the next, a line
// longer than the buffer, a quote — and a parse error — far into the input,
// whose line number must be the input's own.
func TestReadCSVAcrossBuffers(t *testing.T) {
	var b strings.Builder
	b.WriteString("ID,GRP,TXT\r\n")
	for i := 0; i < 30000; i++ {
		fmt.Fprintf(&b, "%d,g%d,text %d\r\n", i, i%89, i%1013)
		if i%5000 == 17 {
			b.WriteString("\n\r\n")
		}
	}
	plain := b.String()
	checkAgainstReference(t, []byte(plain))
	checkAgainstReference(t, []byte(plain+"1,2,"+strings.Repeat("long ", 60000)+"\n3,4,5"))
	checkAgainstReference(t, []byte(plain+"1,\"quoted, with\nnewline\",3\n4,5,6\n7,8\n"))
	bare := plain + "1,2,3\n4,5\"6,7\n"
	checkAgainstReference(t, []byte(bare))
	_, err := dataset.ReadCSV(strings.NewReader(bare), true)
	var perr *csv.ParseError
	if !errors.As(err, &perr) || perr.Line != strings.Count(bare, "\n") {
		t.Fatalf("bare quote on line %d: err = %v", strings.Count(bare, "\n"), err)
	}
}

// TestReadCSVReadError: an error of the underlying reader is reported after
// the complete lines before it, and in the reference's words.
func TestReadCSVReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, data := range []string{"A,B\n1,2\n3,", "A,B\n1\n3,4", "A,B\n\"1\",2\n3,"} {
		broken := func() io.Reader {
			return io.MultiReader(strings.NewReader(data), iotest.ErrReader(boom))
		}
		want, wantErr := referenceReadCSV(broken(), true)
		if wantErr == nil {
			t.Fatalf("%q: the reference read through the error", data)
		}
		sameLoad(t, fmt.Sprintf("%q then an error", data), broken(), true, want, wantErr)
	}
}

// TestReadCSVAllocations: loading n rows over d distinct values allocates
// O(d) plus a constant — the strings the dictionaries keep, their tables and
// the columns' doublings — not O(n).
func TestReadCSVAllocations(t *testing.T) {
	input := func(rows, distinct int) []byte {
		var b bytes.Buffer
		b.WriteString("K,V,W\n")
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&b, "k%d,v%d,w\n", i%distinct, (i*7)%distinct)
		}
		return b.Bytes()
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := dataset.ReadCSV(bytes.NewReader(data), true); err != nil {
				t.Fatal(err)
			}
		})
	}
	const distinct = 200
	small, large := allocs(input(2_000, distinct)), allocs(input(64_000, distinct))
	// 32 times the rows: only the columns' doublings may add to the count.
	if large > small+100 {
		t.Errorf("allocations grow with the rows: %.0f for 2,000 rows, %.0f for 64,000", small, large)
	}
	if limit := float64(2*distinct + 200); small > limit {
		t.Errorf("%.0f allocations for %d distinct values, want at most %.0f", small, 2*distinct+1, limit)
	}
}
