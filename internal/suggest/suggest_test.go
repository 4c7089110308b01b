package suggest

import (
	"context"
	"errors"
	"math"
	"strconv"
	"testing"

	"dbexplorer/internal/cadql"
	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataview"
)

// carsSuggester builds a Suggester (with model) over n synthetic
// listings.
func carsSuggester(t *testing.T, n int) *Suggester {
	t.Helper()
	tbl := datagen.UsedCars(n, 1)
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildModel(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	return New(v, m)
}

func TestBuildModel(t *testing.T) {
	s := carsSuggester(t, 2000)
	if s.Degraded() {
		t.Fatal("model should have been built")
	}
	if s.model.net == nil {
		t.Error("Bayes net missing")
	}
	// Each model belongs to exactly one make in the catalog, so the FD
	// sweep must find Model -> Make.
	found := false
	for _, d := range s.model.Dependencies() {
		if d.Determinant == "Model" && d.Dependent == "Make" && d.Error <= fdMaxError {
			found = true
		}
	}
	if !found {
		t.Errorf("Model -> Make not mined: %v", s.model.Dependencies())
	}
}

func TestCompleteValuePosition(t *testing.T) {
	s := carsSuggester(t, 2000)
	c, err := s.Complete(context.Background(), "SELECT * FROM UsedCars WHERE Make = ", Options{Limit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !c.AtEnd {
		t.Error("frontier should be at end")
	}
	freqs := s.view.Table().Index().CatFreqs(mustCol(t, s, "Make"))
	vals := 0
	for _, cand := range c.Candidates {
		if cand.Category != cadql.ExpectValue {
			continue
		}
		vals++
		col, _ := s.view.Column("Make")
		code := col.CodeOf(unquote(cand.Text))
		if code < 0 {
			t.Fatalf("candidate %q is not a Make value", cand.Text)
		}
		if cand.Count != int(freqs[code]) {
			t.Errorf("%q count = %d, want %d", cand.Text, cand.Count, freqs[code])
		}
	}
	if vals == 0 {
		t.Fatal("no value candidates")
	}
	for i := 1; i < len(c.Candidates); i++ {
		a, b := c.Candidates[i-1], c.Candidates[i]
		if !a.DeadEnd && b.DeadEnd {
			continue
		}
		if a.DeadEnd && !b.DeadEnd {
			t.Fatalf("dead-end candidate ranked above live one at %d", i)
		}
	}
}

func TestCompleteUnderPrefix(t *testing.T) {
	s := carsSuggester(t, 2000)
	c, err := s.Complete(context.Background(),
		"SELECT * FROM UsedCars WHERE Make = Ford AND Model = ", Options{Limit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	tbl := s.view.Table()
	makeCol := tbl.Cat(mustCol(t, s, "Make"))
	modelCol := tbl.Cat(mustCol(t, s, "Model"))
	brute := map[string]int{}
	for row := 0; row < tbl.NumRows(); row++ {
		if makeCol.Value(row) == "Ford" {
			brute[modelCol.Value(row)]++
		}
	}
	for _, cand := range c.Candidates {
		if cand.Category != cadql.ExpectValue {
			continue
		}
		label := unquote(cand.Text)
		if cand.Count != brute[label] {
			t.Errorf("%s count = %d, brute force = %d", label, cand.Count, brute[label])
		}
		if cand.DeadEnd != (brute[label] == 0) {
			t.Errorf("%s DeadEnd = %v with %d rows", label, cand.DeadEnd, brute[label])
		}
	}
}

func TestCompleteNumberPosition(t *testing.T) {
	s := carsSuggester(t, 2000)
	c, err := s.Complete(context.Background(), "SELECT * FROM UsedCars WHERE Price < ", Options{})
	if err != nil {
		t.Fatal(err)
	}
	nums := 0
	for _, cand := range c.Candidates {
		if cand.Category == cadql.ExpectNumber {
			nums++
			if cand.Attr != "Price" {
				t.Errorf("number candidate attr = %q", cand.Attr)
			}
		}
	}
	if nums == 0 {
		t.Fatalf("no numeric candidates in %v", c.Candidates)
	}
}

// TestCompleteNumericFrontierKeepsOperator: at a numeric value frontier
// the typed operator decides what each threshold candidate counts —
// "Price < x" must count the rows strictly below x (NaN cells match no
// comparison), not the rows equal to x.
func TestCompleteNumericFrontierKeepsOperator(t *testing.T) {
	s := carsSuggester(t, 2000)
	tbl := s.view.Table()
	price := tbl.Num(tbl.ColIndex("Price"))
	holds := map[string]func(v, edge float64) bool{
		"<":  func(v, edge float64) bool { return v < edge },
		"<=": func(v, edge float64) bool { return v <= edge },
		">":  func(v, edge float64) bool { return v > edge },
		">=": func(v, edge float64) bool { return v >= edge },
	}
	for op, holds := range holds {
		c, err := s.Complete(context.Background(), "SELECT * FROM UsedCars WHERE Price "+op+" ", Options{Limit: 100})
		if err != nil {
			t.Fatal(err)
		}
		nums := 0
		for _, cand := range c.Candidates {
			if cand.Category != cadql.ExpectNumber {
				continue
			}
			nums++
			edge, err := strconv.ParseFloat(cand.Text, 64)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for r := 0; r < tbl.NumRows(); r++ {
				if holds(price.Value(r), edge) {
					want++
				}
			}
			if cand.Count != want {
				t.Errorf("Price %s %s: count %d, want %d", op, cand.Text, cand.Count, want)
			}
		}
		if nums == 0 {
			t.Fatalf("Price %s: no numeric candidates in %v", op, c.Candidates)
		}
	}
}

func TestCompleteOperatorPosition(t *testing.T) {
	s := carsSuggester(t, 500)
	c, err := s.Complete(context.Background(), "SELECT * FROM UsedCars WHERE Make ", Options{Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]bool{}
	for _, cand := range c.Candidates {
		if cand.Category == cadql.ExpectOp {
			ops[cand.Text] = true
		}
	}
	if !ops["="] || !ops["!="] {
		t.Errorf("missing categorical operators: %v", ops)
	}
	if ops["<"] {
		t.Error("range operator offered for a categorical attribute")
	}
}

func TestCompleteHardErrors(t *testing.T) {
	s := carsSuggester(t, 500)
	for _, input := range []string{
		"SELECT * FROM UsedCars WHERE Make = Ford ORDER Price",
		"SELECT * FROM UsedCars WHERE Make = 'unterminated",
	} {
		_, err := s.Complete(context.Background(), input, Options{})
		var perr *cadql.ParseError
		if !errors.As(err, &perr) {
			t.Errorf("%q: err = %v, want *cadql.ParseError", input, err)
		}
	}
}

func TestCompleteUnknownAttribute(t *testing.T) {
	s := carsSuggester(t, 500)
	_, err := s.Complete(context.Background(),
		"SELECT * FROM UsedCars WHERE Nope = Ford AND Make = ", Options{})
	var uerr *dataview.UnknownAttrError
	if !errors.As(err, &uerr) || uerr.Attr != "Nope" {
		t.Errorf("err = %v, want UnknownAttrError{Nope}", err)
	}
	_, err = s.Complete(context.Background(),
		"SELECT * FROM UsedCars WHERE Make = Nonesuch AND Model = ", Options{})
	var verr *dataview.UnknownValueError
	if !errors.As(err, &verr) || verr.Value != "Nonesuch" {
		t.Errorf("err = %v, want UnknownValueError{Make, Nonesuch}", err)
	}
}

func TestCompleteDegradedWithoutModel(t *testing.T) {
	tbl := datagen.UsedCars(500, 1)
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(v, nil)
	c, err := s.Complete(context.Background(), "SELECT * FROM UsedCars WHERE Make = ", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Degraded {
		t.Error("completion should report degraded mode")
	}
	for _, cand := range c.Candidates {
		if cand.Category == cadql.ExpectValue && cand.Interest != 1 && !cand.DeadEnd {
			t.Errorf("degraded interest = %v for %q, want 1", cand.Interest, cand.Text)
		}
	}
}

func TestDrillNoFilters(t *testing.T) {
	s := carsSuggester(t, 2000)
	d, err := s.Drill(context.Background(), nil, Options{Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	if d.Total != 2000 || d.DeadEnd {
		t.Fatalf("total = %d dead=%v", d.Total, d.DeadEnd)
	}
	seen := map[string]bool{}
	for _, a := range d.Attrs {
		seen[a.Attr] = true
		if a.Score < 0 || a.Score > 1.0001 {
			t.Errorf("%s entropy score = %v out of [0,1]", a.Attr, a.Score)
		}
		if a.PValue != 1 {
			t.Errorf("%s p-value = %v, want 1 without filters", a.Attr, a.PValue)
		}
	}
	if seen["Engine"] {
		t.Error("non-queriable attribute recommended")
	}
	if !seen["Make"] || !seen["Price"] {
		t.Errorf("core attributes missing from %v", seen)
	}
}

func TestDrillDeterminedAttributeDownranked(t *testing.T) {
	s := carsSuggester(t, 2000)
	d, err := s.Drill(context.Background(),
		[]Selection{{Attr: "Model", Values: []string{firstValue(t, s, "Model")}}},
		Options{Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	var makeSug *AttrSuggestion
	for i := range d.Attrs {
		if d.Attrs[i].Attr == "Make" {
			makeSug = &d.Attrs[i]
		}
		if d.Attrs[i].Attr == "Model" {
			t.Error("already-selected attribute recommended again")
		}
	}
	if makeSug == nil {
		t.Fatal("Make not in recommendations")
	}
	if makeSug.DeterminedBy != "Model" {
		t.Errorf("Make.DeterminedBy = %q, want Model", makeSug.DeterminedBy)
	}
}

func TestDrillDeadEndFilterSet(t *testing.T) {
	s := carsSuggester(t, 500)
	// Two different makes ANDed across attributes cannot both hold...
	// so fabricate emptiness with a model from one make and a different
	// make selected.
	model := firstValue(t, s, "Model")
	other := otherMakeOf(t, s, model)
	d, err := s.Drill(context.Background(), []Selection{
		{Attr: "Model", Values: []string{model}},
		{Attr: "Make", Values: []string{other}},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.DeadEnd || d.Total != 0 {
		t.Fatalf("dead=%v total=%d, want dead end", d.DeadEnd, d.Total)
	}
	if len(d.Attrs) != 0 {
		t.Errorf("dead-end drill returned recommendations: %v", d.Attrs)
	}
}

func TestDrillUnknownSelection(t *testing.T) {
	s := carsSuggester(t, 200)
	_, err := s.Drill(context.Background(),
		[]Selection{{Attr: "Make", Values: []string{"Nonesuch"}}}, Options{})
	var verr *dataview.UnknownValueError
	if !errors.As(err, &verr) {
		t.Errorf("err = %v, want UnknownValueError", err)
	}
	_, err = s.Drill(context.Background(),
		[]Selection{{Attr: "Engine", Values: []string{"V6"}}}, Options{})
	if err == nil {
		t.Error("non-queriable selection should error")
	}
}

func TestDrillCancellation(t *testing.T) {
	s := carsSuggester(t, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Drill(ctx, nil, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// mustCol resolves an attribute to its table column index.
func mustCol(t *testing.T, s *Suggester, attr string) int {
	t.Helper()
	col, err := s.view.Column(attr)
	if err != nil {
		t.Fatal(err)
	}
	return col.Col
}

// firstValue returns the attribute's first dictionary value.
func firstValue(t *testing.T, s *Suggester, attr string) string {
	t.Helper()
	col, err := s.view.Column(attr)
	if err != nil {
		t.Fatal(err)
	}
	if col.Cardinality() == 0 {
		t.Fatalf("%s has no values", attr)
	}
	return col.Label(0)
}

// otherMakeOf finds a make that does not produce the given model.
func otherMakeOf(t *testing.T, s *Suggester, model string) string {
	t.Helper()
	tbl := s.view.Table()
	makeCol := tbl.Cat(mustCol(t, s, "Make"))
	modelCol := tbl.Cat(mustCol(t, s, "Model"))
	owners := map[string]bool{}
	for row := 0; row < tbl.NumRows(); row++ {
		if modelCol.Value(row) == model {
			owners[makeCol.Value(row)] = true
		}
	}
	for code := 0; code < makeCol.Cardinality(); code++ {
		if mk := makeCol.Dict()[code]; !owners[mk] {
			return mk
		}
	}
	t.Fatal("every make produces this model?")
	return ""
}

// unquote undoes quoteValue for brute-force comparisons.
func unquote(v string) string {
	if len(v) >= 2 && v[0] == '\'' && v[len(v)-1] == '\'' {
		return v[1 : len(v)-1]
	}
	return v
}

// TestNormalizedEntropy pins the scorer's range.
func TestNormalizedEntropy(t *testing.T) {
	if got := normalizedEntropy([]int{5, 5, 5, 5}); math.Abs(got-1) > 1e-9 {
		t.Errorf("uniform entropy = %v, want 1", got)
	}
	if got := normalizedEntropy([]int{100}); got != 0 {
		t.Errorf("single-bucket entropy = %v, want 0", got)
	}
	if got := normalizedEntropy(nil); got != 0 {
		t.Errorf("empty entropy = %v, want 0", got)
	}
}

// TestQuoteValue pins literal rendering.
func TestQuoteValue(t *testing.T) {
	cases := map[string]string{
		"Ford":       "Ford",
		"Land Rover": "'Land Rover'",
		"F-150":      "F-150",
		"3series":    "'3series'",
		"":           "''",
	}
	for in, want := range cases {
		if got := quoteValue(in); got != want {
			t.Errorf("quoteValue(%q) = %q, want %q", in, got, want)
		}
	}
}
