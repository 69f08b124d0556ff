package dataset_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/cfd"
	"repro/dataset"
	"repro/discovery"
)

func TestCSVRoundTrip(t *testing.T) {
	rel := dataset.Cust()
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, rel); err != nil {
		t.Fatal(err)
	}
	back, err := dataset.ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != rel.Size() || back.Arity() != rel.Arity() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", back.Size(), back.Arity(), rel.Size(), rel.Arity())
	}
	for i := 0; i < rel.Size(); i++ {
		a, b := rel.Row(i), back.Row(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("row %d col %d: %q vs %q", i, j, a[j], b[j])
			}
		}
	}
}

func TestCSVFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cust.csv")
	if err := dataset.SaveCSVFile(path, dataset.Cust()); err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.LoadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Size() != 8 {
		t.Errorf("loaded %d tuples", rel.Size())
	}
	if _, err := dataset.LoadCSVFile(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file must error")
	}
}

func TestReadCSVWithoutHeader(t *testing.T) {
	rel, err := dataset.ReadCSV(strings.NewReader("1,x\n2,y\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Arity() != 2 || rel.Attributes()[0] != "A1" {
		t.Errorf("auto-named attributes wrong: %v", rel.Attributes())
	}
	if _, err := dataset.ReadCSV(strings.NewReader(""), true); err == nil {
		t.Error("empty input must error")
	}
	if _, err := dataset.ReadCSV(strings.NewReader("A,B\n1\n"), true); err == nil {
		t.Error("ragged rows must error")
	}
}

// TestReadCSVLarge drives the streaming reader through a relation far larger
// than any fixture (100k rows) and spot-checks shape and content; a
// regression to slurping the whole file as [][]string would roughly double
// this test's peak memory.
func TestReadCSVLarge(t *testing.T) {
	const rows = 100_000
	var buf bytes.Buffer
	buf.WriteString("ID,GRP,VAL\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&buf, "%d,g%d,v%d\n", i, i%97, i%13)
	}
	rel, err := dataset.ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Size() != rows || rel.Arity() != 3 {
		t.Fatalf("shape = %d x %d, want %d x 3", rel.Size(), rel.Arity(), rows)
	}
	for _, i := range []int{0, 1, 50_000, rows - 1} {
		want := []string{fmt.Sprint(i), fmt.Sprintf("g%d", i%97), fmt.Sprintf("v%d", i%13)}
		got := rel.Row(i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d = %v, want %v", i, got, want)
			}
		}
	}
	// A ragged row deep in the stream reports its 1-based data-row number.
	var bad bytes.Buffer
	bad.WriteString("A,B\n")
	for i := 0; i < 1000; i++ {
		bad.WriteString("1,2\n")
	}
	bad.WriteString("only-one-field\n")
	if _, err := dataset.ReadCSV(&bad, true); err == nil || !strings.Contains(err.Error(), "row 1001") {
		t.Fatalf("ragged row error = %v, want it to name row 1001", err)
	}
}

func TestCustMatchesPaperFigure(t *testing.T) {
	rel := dataset.Cust()
	if rel.Size() != 8 || rel.Arity() != 7 {
		t.Fatalf("cust shape %dx%d", rel.Size(), rel.Arity())
	}
	ok, err := rel.Satisfies(cfd.NewFD([]string{"CC", "AC"}, "CT"))
	if err != nil || !ok {
		t.Error("f1 must hold on the packaged cust relation")
	}
	phi0 := cfd.CFD{LHS: []string{"CC", "ZIP"}, RHS: "STR", LHSPattern: []string{"44", "_"}, RHSPattern: "_"}
	ok, err = rel.Satisfies(phi0)
	if err != nil || !ok {
		t.Error("phi0 must hold on the packaged cust relation")
	}
}

func TestTaxGenerator(t *testing.T) {
	cfg := dataset.TaxConfig{Size: 500, Arity: 9, CF: 0.7, Seed: 42}
	rel, err := dataset.Tax(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Size() != 500 || rel.Arity() != 9 {
		t.Fatalf("shape %dx%d", rel.Size(), rel.Arity())
	}
	// Determinism.
	again, err := dataset.Tax(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rel.Size(); i += 97 {
		a, b := rel.Row(i), again.Row(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("generator is not deterministic at row %d", i)
			}
		}
	}
	// Embedded dependencies: AC -> CT and ST(=f(CT)) hold by construction.
	ok, err := rel.Satisfies(cfd.NewFD([]string{"AC"}, "CT"))
	if err != nil || !ok {
		t.Error("AC -> CT must hold on generated tax data")
	}
	ok, err = rel.Satisfies(cfd.NewFD([]string{"CT"}, "ST"))
	if err != nil || !ok {
		t.Error("CT -> ST must hold on generated tax data")
	}
	// The conditional street dependency holds for UK tuples but not globally.
	phiUK := cfd.CFD{LHS: []string{"CC", "ZIP"}, RHS: "STR", LHSPattern: []string{"44", "_"}, RHSPattern: "_"}
	ok, err = rel.Satisfies(phiUK)
	if err != nil || !ok {
		t.Error("([CC,ZIP] -> STR, (44,_||_)) must hold on generated tax data")
	}
	global := cfd.NewFD([]string{"ZIP"}, "STR")
	ok, err = rel.Satisfies(global)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("ZIP -> STR should not hold globally (the dependency is conditional)")
	}
}

func TestTaxGeneratorArityAndCF(t *testing.T) {
	// Higher arity adds extension attributes with embedded pair dependencies.
	rel, err := dataset.Tax(dataset.TaxConfig{Size: 300, Arity: 15, CF: 0.7, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	attrs := rel.Attributes()
	if len(attrs) != 15 || attrs[11] != "EXT01" {
		t.Fatalf("extension attributes wrong: %v", attrs)
	}
	ok, err := rel.Satisfies(cfd.NewFD([]string{"EXT01"}, "EXT02"))
	if err != nil || !ok {
		t.Error("EXT01 -> EXT02 must hold by construction")
	}
	// Lower CF means smaller active domains.
	low, err := dataset.Tax(dataset.TaxConfig{Size: 2000, Arity: 9, CF: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	high, err := dataset.Tax(dataset.TaxConfig{Size: 2000, Arity: 9, CF: 0.9, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dLow, _ := low.DomainSize("PN")
	dHigh, _ := high.DomainSize("PN")
	if dLow >= dHigh {
		t.Errorf("CF should scale domain sizes: CF=0.3 gives %d distinct PN, CF=0.9 gives %d", dLow, dHigh)
	}
	// Invalid configurations.
	if _, err := dataset.Tax(dataset.TaxConfig{Size: 0}); err == nil {
		t.Error("Size 0 must be rejected")
	}
	if _, err := dataset.Tax(dataset.TaxConfig{Size: 10, Arity: 3}); err == nil {
		t.Error("Arity below 7 must be rejected")
	}
	if _, err := dataset.Tax(dataset.TaxConfig{Size: 10, Arity: 7, CF: 1.5}); err == nil {
		t.Error("CF above 1 must be rejected")
	}
}

func TestWisconsinLike(t *testing.T) {
	rel := dataset.WisconsinLike(0, 1)
	if rel.Size() != dataset.WBCSize || rel.Arity() != 11 {
		t.Fatalf("shape %dx%d, want %dx11", rel.Size(), rel.Arity(), dataset.WBCSize)
	}
	// Feature domains stay within the 1..10 grading of the real data set.
	for _, a := range []string{"ClumpThickness", "BareNuclei", "Mitoses"} {
		d, err := rel.DomainSize(a)
		if err != nil || d > 10 {
			t.Errorf("%s domain size %d (err %v)", a, d, err)
		}
	}
	if d, _ := rel.DomainSize("Class"); d != 2 {
		t.Errorf("Class domain size %d, want 2", d)
	}
	// The embedded exact dependency is discoverable.
	ok, err := rel.Satisfies(cfd.NewFD([]string{"CellSizeUniformity"}, "CellShapeUniformity"))
	if err != nil || !ok {
		t.Error("CellSizeUniformity -> CellShapeUniformity must hold by construction")
	}
	small := dataset.WisconsinLike(100, 1)
	if small.Size() != 100 {
		t.Errorf("custom size ignored: %d", small.Size())
	}
}

func TestChessLike(t *testing.T) {
	rel := dataset.ChessLike(2000, 3)
	if rel.Size() != 2000 || rel.Arity() != 7 {
		t.Fatalf("shape %dx%d", rel.Size(), rel.Arity())
	}
	for _, a := range []string{"WKf", "WKr", "BKf", "BKr"} {
		d, err := rel.DomainSize(a)
		if err != nil || d > 8 {
			t.Errorf("%s domain size %d (err %v)", a, d, err)
		}
	}
	d, _ := rel.DomainSize("Depth")
	if d < 2 || d > 18 {
		t.Errorf("Depth domain size %d, want 2..18", d)
	}
	// The class is a function of the position.
	ok, err := rel.Satisfies(cfd.NewFD([]string{"WKf", "WKr", "WRf", "WRr", "BKf", "BKr"}, "Depth"))
	if err != nil || !ok {
		t.Error("position -> Depth must hold by construction")
	}
	if full := dataset.ChessLike(0, 3); full.Size() != dataset.ChessSize {
		t.Errorf("default size %d, want %d", full.Size(), dataset.ChessSize)
	}
}

func TestInjectNoise(t *testing.T) {
	clean, err := dataset.Tax(dataset.TaxConfig{Size: 300, Arity: 7, CF: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dirty, perturbed := dataset.InjectNoise(clean, 0.1, 99)
	if dirty.Size() != clean.Size() {
		t.Fatalf("noise changed the size: %d vs %d", dirty.Size(), clean.Size())
	}
	if len(perturbed) == 0 || len(perturbed) > clean.Size()/4 {
		t.Errorf("unexpected number of perturbed tuples: %d", len(perturbed))
	}
	changed := 0
	for i := 0; i < clean.Size(); i++ {
		a, b := clean.Row(i), dirty.Row(i)
		diff := 0
		for j := range a {
			if a[j] != b[j] {
				diff++
			}
		}
		if diff > 1 {
			t.Errorf("tuple %d changed in %d attributes, want at most 1", i, diff)
		}
		if diff == 1 {
			changed++
		}
	}
	if changed != len(perturbed) {
		t.Errorf("reported %d perturbed tuples, observed %d changed rows", len(perturbed), changed)
	}
	// Zero rate leaves the data untouched.
	same, none := dataset.InjectNoise(clean, 0, 1)
	if len(none) != 0 {
		t.Errorf("rate 0 perturbed %d tuples", len(none))
	}
	for i := 0; i < clean.Size(); i += 53 {
		a, b := clean.Row(i), same.Row(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("rate 0 modified the data")
			}
		}
	}
}

// TestDiscoveryOnWisconsinLike is an integration smoke test: the WBC-shaped
// data yields conditional rules for both general algorithms.
func TestDiscoveryOnWisconsinLike(t *testing.T) {
	rel := dataset.WisconsinLike(200, 2)
	set, err := discovery.NewEngine(discovery.AlgFastCFD, rel, discovery.WithSupport(20), discovery.WithMaxLHS(3)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 {
		t.Error("expected CFDs on WBC-shaped data")
	}
}
