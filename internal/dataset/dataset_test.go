package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func carsTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable("cars", Schema{
		{Name: "Make", Kind: Categorical, Queriable: true},
		{Name: "Price", Kind: Numeric, Queriable: true},
		{Name: "Drivetrain", Kind: Categorical, Queriable: false},
	})
	rows := []struct {
		make  string
		price float64
		dt    string
	}{
		{"Ford", 20000, "4WD"},
		{"Ford", 25000, "2WD"},
		{"Jeep", 27000, "4WD"},
		{"Chevrolet", 22000, "AWD"},
		{"Jeep", 31000, "4WD"},
	}
	for _, r := range rows {
		tbl.MustAppendRow(r.make, r.price, r.dt)
	}
	return tbl
}

func TestKindString(t *testing.T) {
	if got := Categorical.String(); got != "categorical" {
		t.Errorf("Categorical.String() = %q", got)
	}
	if got := Numeric.String(); got != "numeric" {
		t.Errorf("Numeric.String() = %q", got)
	}
	if got := Kind(9).String(); got != "Kind(9)" {
		t.Errorf("Kind(9).String() = %q", got)
	}
}

func TestSchemaIndexAndNames(t *testing.T) {
	tbl := carsTable(t)
	s := tbl.Schema()
	if got := s.Index("Price"); got != 1 {
		t.Errorf("Index(Price) = %d, want 1", got)
	}
	if got := s.Index("Nope"); got != -1 {
		t.Errorf("Index(Nope) = %d, want -1", got)
	}
	want := []string{"Make", "Price", "Drivetrain"}
	got := s.Names()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCatColumnDictionary(t *testing.T) {
	c := NewCatColumn()
	for _, v := range []string{"a", "b", "a", "c", "b"} {
		c.Append(v)
	}
	if c.Len() != 5 {
		t.Fatalf("Len = %d, want 5", c.Len())
	}
	if c.Cardinality() != 3 {
		t.Fatalf("Cardinality = %d, want 3", c.Cardinality())
	}
	if c.Value(2) != "a" || c.Value(4) != "b" {
		t.Errorf("Value lookup wrong: %q %q", c.Value(2), c.Value(4))
	}
	if c.Code(0) != c.Code(2) {
		t.Errorf("equal values got different codes")
	}
	if c.CodeOf("c") != 2 {
		t.Errorf("CodeOf(c) = %d, want 2 (first-seen order)", c.CodeOf("c"))
	}
	if c.CodeOf("zzz") != -1 {
		t.Errorf("CodeOf(zzz) = %d, want -1", c.CodeOf("zzz"))
	}
}

func TestAppendRowErrors(t *testing.T) {
	tbl := carsTable(t)
	if err := tbl.AppendRow("Ford", 1.0); err == nil {
		t.Error("short row: want error")
	}
	if err := tbl.AppendRow("Ford", "notanumber", "2WD"); err == nil {
		t.Error("string into numeric column: want error")
	}
	if err := tbl.AppendRow(12, 1.0, "2WD"); err == nil {
		t.Error("int into categorical column: want error")
	}
	if err := tbl.AppendRow("Ford", 21, "2WD"); err != nil {
		t.Errorf("int into numeric column should be accepted: %v", err)
	}
}

func TestColumnAccessors(t *testing.T) {
	tbl := carsTable(t)
	if tbl.NumRows() != 5 || tbl.NumCols() != 3 {
		t.Fatalf("dims = (%d,%d), want (5,3)", tbl.NumRows(), tbl.NumCols())
	}
	if _, err := tbl.CatByName("Make"); err != nil {
		t.Errorf("CatByName(Make): %v", err)
	}
	if _, err := tbl.CatByName("Price"); err == nil {
		t.Error("CatByName(Price): want error for numeric column")
	}
	if _, err := tbl.CatByName("Nope"); err == nil {
		t.Error("CatByName(Nope): want error for missing column")
	}
	if _, err := tbl.NumByName("Price"); err != nil {
		t.Errorf("NumByName(Price): %v", err)
	}
	if _, err := tbl.NumByName("Make"); err == nil {
		t.Error("NumByName(Make): want error for categorical column")
	}
	if _, err := tbl.NumByName("Nope"); err == nil {
		t.Error("NumByName(Nope): want error for missing column")
	}
	num, _ := tbl.NumByName("Price")
	if num.Value(0) != 20000 {
		t.Errorf("Price[0] = %g", num.Value(0))
	}
	if len(num.Values()) != 5 {
		t.Errorf("Values() len = %d", len(num.Values()))
	}
}

func TestCellString(t *testing.T) {
	tbl := carsTable(t)
	if got := tbl.CellString(0, 0); got != "Ford" {
		t.Errorf("CellString(0,0) = %q", got)
	}
	if got := tbl.CellString(0, 1); got != "20000" {
		t.Errorf("CellString(0,1) = %q", got)
	}
}

func TestValueCounts(t *testing.T) {
	tbl := carsTable(t)
	all := AllRows(tbl.NumRows())
	counts := tbl.ValueCounts(0, all)
	// Ford:2, Jeep:2, Chevrolet:1 — ties broken by value asc.
	want := []ValueCount{{"Ford", 2}, {"Jeep", 2}, {"Chevrolet", 1}}
	if len(counts) != len(want) {
		t.Fatalf("got %d counts, want %d", len(counts), len(want))
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("counts[%d] = %+v, want %+v", i, counts[i], want[i])
		}
	}
	if got := tbl.ValueCounts(1, all); got != nil {
		t.Errorf("ValueCounts on numeric column = %v, want nil", got)
	}
	sub := RowSet{2, 4} // both Jeep
	counts = tbl.ValueCounts(0, sub)
	if len(counts) != 1 || counts[0].Value != "Jeep" || counts[0].Count != 2 {
		t.Errorf("subset counts = %+v", counts)
	}
}

func TestCodeCountsAndDistinctValues(t *testing.T) {
	tbl := carsTable(t)
	all := AllRows(tbl.NumRows())
	cc := tbl.CodeCounts(0, all)
	catCol, _ := tbl.CatByName("Make")
	if cc[catCol.CodeOf("Jeep")] != 2 {
		t.Errorf("CodeCounts[Jeep] = %d, want 2", cc[catCol.CodeOf("Jeep")])
	}
	if tbl.CodeCounts(1, all) != nil {
		t.Error("CodeCounts on numeric column should be nil")
	}
	dv := tbl.DistinctValues(0, all)
	if len(dv) != 3 || dv[0] != "Ford" {
		t.Errorf("DistinctValues = %v", dv)
	}
	if tbl.DistinctValues(1, all) != nil {
		t.Error("DistinctValues on numeric column should be nil")
	}
}

func TestReadCSVInference(t *testing.T) {
	in := "Make,Price,Doors\nFord,20000,4\nJeep,30000,2\n"
	tbl, err := ReadCSV("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Schema()
	if s[0].Kind != Categorical || s[1].Kind != Numeric || s[2].Kind != Numeric {
		t.Errorf("inferred kinds = %v %v %v", s[0].Kind, s[1].Kind, s[2].Kind)
	}
	if tbl.NumRows() != 2 {
		t.Errorf("rows = %d", tbl.NumRows())
	}
	num, _ := tbl.NumByName("Price")
	if num.Value(1) != 30000 {
		t.Errorf("Price[1] = %g", num.Value(1))
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader("")); err == nil {
		t.Error("empty csv: want error")
	}
	// Ragged rows are rejected.
	if _, err := ReadCSV("t", strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged csv: want error")
	}
}

func TestReadCSVRejectsInfinity(t *testing.T) {
	for _, in := range []string{"kind,age\ncat,1\ndog,Inf\n", "kind,age\ncat,-Inf\ndog,2\n"} {
		_, err := ReadCSV("t", strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), `"age"`) {
			t.Errorf("ReadCSV(%q): err = %v, want one naming column \"age\"", in, err)
		}
	}
	// NaN still reads as the missing value.
	tbl, err := ReadCSV("t", strings.NewReader("kind,age\ncat,NaN\ndog,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if age, _ := tbl.NumByName("age"); !math.IsNaN(age.Value(0)) {
		t.Errorf("age[0] = %v, want NaN", age.Value(0))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := carsTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("cars", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tbl.NumRows() || back.NumCols() != tbl.NumCols() {
		t.Fatalf("round trip dims changed: (%d,%d)", back.NumRows(), back.NumCols())
	}
	for r := 0; r < tbl.NumRows(); r++ {
		for c := 0; c < tbl.NumCols(); c++ {
			if tbl.CellString(r, c) != back.CellString(r, c) {
				t.Errorf("cell (%d,%d): %q != %q", r, c, tbl.CellString(r, c), back.CellString(r, c))
			}
		}
	}
}
