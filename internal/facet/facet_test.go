package facet

import (
	"math"
	"reflect"
	"testing"

	"dbexplorer/internal/core"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

func testView(t *testing.T) (*dataview.View, dataset.RowSet) {
	t.Helper()
	tbl := dataset.NewTable("cars", dataset.Schema{
		{Name: "Make", Kind: dataset.Categorical, Queriable: true},
		{Name: "Engine", Kind: dataset.Categorical, Queriable: false}, // hidden attribute
		{Name: "Price", Kind: dataset.Numeric, Queriable: true},
	})
	rows := []struct {
		mk, eng string
		price   float64
	}{
		{"Ford", "V4", 15000},
		{"Ford", "V6", 25000},
		{"Ford", "V6", 27000},
		{"Jeep", "V6", 28000},
		{"Jeep", "V8", 35000},
		{"Chevrolet", "V4", 16000},
		{"Chevrolet", "V8", 39000},
		{"Chevrolet", "V8", 41000},
	}
	for _, r := range rows {
		tbl.MustAppendRow(r.mk, r.eng, r.price)
	}
	v, err := dataview.New(tbl, dataview.Options{Bins: 3})
	if err != nil {
		t.Fatal(err)
	}
	return v, dataset.AllRows(tbl.NumRows())
}

func TestSummarize(t *testing.T) {
	v, rows := testView(t)
	d := Summarize(v, rows, false)
	if len(d.Attrs) != 3 {
		t.Fatalf("attrs = %d", len(d.Attrs))
	}
	if d.Count("Make", "Ford") != 3 || d.Count("Make", "Jeep") != 2 {
		t.Errorf("Make counts wrong: %+v", d.Attr("Make"))
	}
	// Sorted descending by count.
	mk := d.Attr("Make")
	for i := 1; i < len(mk.Values); i++ {
		if mk.Values[i].Count > mk.Values[i-1].Count {
			t.Error("digest values not count-sorted")
		}
	}
	// Numeric attributes summarized by bin label.
	pr := d.Attr("Price")
	if pr == nil || len(pr.Values) == 0 {
		t.Fatal("no Price summary")
	}
	// Queriable-only hides Engine.
	dq := Summarize(v, rows, true)
	if dq.Attr("Engine") != nil {
		t.Error("non-queriable attribute leaked into queriable digest")
	}
	if dq.Attr("Make") == nil {
		t.Error("queriable attribute missing")
	}
	// Unknown lookups.
	if d.Attr("Nope") != nil || d.Count("Nope", "x") != 0 || d.Count("Make", "Nope") != 0 {
		t.Error("unknown lookups should be zero")
	}
}

func TestDigestSimilarity(t *testing.T) {
	v, rows := testView(t)
	d := Summarize(v, rows, true)
	if got := DigestSimilarity(d, d); got < 1-1e-9 {
		t.Errorf("self similarity = %g", got)
	}
	// Disjoint subsets are less similar than identical ones.
	s := NewSession(v, rows)
	if err := s.Select("Make", "Ford"); err != nil {
		t.Fatal(err)
	}
	ford := s.Digest()
	s.Reset()
	if err := s.Select("Make", "Jeep"); err != nil {
		t.Fatal(err)
	}
	jeep := s.Digest()
	cross := DigestSimilarity(ford, jeep)
	if cross >= 1 {
		t.Errorf("Ford/Jeep digests should differ: %g", cross)
	}
	if DigestSimilarity(&Digest{}, &Digest{}) != 1 {
		t.Error("empty digests should be identical")
	}
	sym1, sym2 := DigestSimilarity(ford, jeep), DigestSimilarity(jeep, ford)
	if sym1 != sym2 {
		t.Error("similarity not symmetric")
	}
}

func TestSessionFilters(t *testing.T) {
	v, rows := testView(t)
	s := NewSession(v, rows)
	if s.Count() != 8 {
		t.Fatalf("initial count = %d", s.Count())
	}
	if err := s.Select("Make", "Ford"); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 3 {
		t.Errorf("Ford count = %d", s.Count())
	}
	// OR within attribute.
	if err := s.Select("Make", "Jeep"); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 5 {
		t.Errorf("Ford|Jeep count = %d", s.Count())
	}
	// AND across attributes (numeric bin label).
	pr, _ := v.Column("Price")
	low := pr.Label(0)
	if err := s.Select("Price", low); err != nil {
		t.Fatal(err)
	}
	if s.Count() >= 5 {
		t.Errorf("cross-attribute AND did not narrow: %d", s.Count())
	}
	sels := s.Selections()
	if len(sels) != 2 || sels[0].Attr != "Make" || len(sels[0].Values) != 2 {
		t.Errorf("selections = %+v", sels)
	}
	// Deselect narrows back.
	if err := s.Deselect("Make", "Jeep"); err != nil {
		t.Fatal(err)
	}
	if err := s.Deselect("Make", "Ford"); err != nil {
		t.Fatal(err)
	}
	// Make cleared entirely.
	if len(s.Selections()) != 1 {
		t.Errorf("selections after full deselect = %+v", s.Selections())
	}
	s.ClearAttr("Price")
	if s.Count() != 8 {
		t.Errorf("after clear count = %d", s.Count())
	}
	s.ClearAttr("Price") // idempotent
	if err := s.Select("Make", "Ford"); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if s.Count() != 8 || len(s.Selections()) != 0 {
		t.Error("reset incomplete")
	}
}

func TestSessionErrors(t *testing.T) {
	v, rows := testView(t)
	s := NewSession(v, rows)
	if err := s.Select("Nope", "x"); err == nil {
		t.Error("unknown attribute: want error")
	}
	if err := s.Select("Make", "Nope"); err == nil {
		t.Error("unknown value: want error")
	}
	// Limitation 2: Engine is in the data but not queriable.
	if err := s.Select("Engine", "V8"); err == nil {
		t.Error("non-queriable attribute selectable: want error")
	}
	if err := s.Deselect("Make", "Ford"); err == nil {
		t.Error("deselect with no filters: want error")
	}
	if err := s.Select("Make", "Ford"); err != nil {
		t.Fatal(err)
	}
	if err := s.Deselect("Make", "Jeep"); err == nil {
		t.Error("deselect unselected value: want error")
	}
	if err := s.Deselect("Nope", "x"); err == nil {
		t.Error("deselect unknown attribute: want error")
	}
}

func TestSessionBaseRestriction(t *testing.T) {
	v, rows := testView(t)
	s := NewSession(v, rows[:4]) // only the Fords and one Jeep
	if s.Count() != 4 {
		t.Errorf("base-restricted count = %d", s.Count())
	}
	d := s.Digest()
	if d.Count("Make", "Chevrolet") != 0 {
		t.Error("digest includes rows outside the base result set")
	}
}

// TestSessionBaseIsASet: an unsorted base with a duplicate reads as its
// sorted unique set through Count, Page, Rows and the digest alike.
func TestSessionBaseIsASet(t *testing.T) {
	v, _ := testView(t)
	s := NewSession(v, dataset.RowSet{3, 1, 1, 2})
	want := []int{1, 2, 3}
	page, total := s.Page(0, -1)
	if s.Count() != 3 || total != 3 || !reflect.DeepEqual([]int(page), want) || !reflect.DeepEqual([]int(s.Rows()), want) {
		t.Errorf("Count %d, Page %v of %d, Rows %v; want 3, %v of 3, %v", s.Count(), page, total, s.Rows(), want, want)
	}
	if n := s.Digest().Count("Make", "Ford") + s.Digest().Count("Make", "Jeep"); n != 3 {
		t.Errorf("digest counts %d rows, want 3", n)
	}
}

func TestPanelDigest(t *testing.T) {
	v, rows := testView(t)
	s := NewSession(v, rows)
	if err := s.Select("Make", "Ford"); err != nil {
		t.Fatal(err)
	}
	pr, _ := v.Column("Price")
	low := pr.Label(0)
	if err := s.Select("Price", low); err != nil {
		t.Fatal(err)
	}
	plain := s.Digest()
	panel := s.PanelDigest()
	// The plain digest hides other makes entirely.
	if plain.Count("Make", "Chevrolet") != 0 {
		t.Errorf("plain digest shows Chevrolet: %d", plain.Count("Make", "Chevrolet"))
	}
	// The panel digest shows what Chevrolet would match under the Price
	// filter alone (the 16000 Chevrolet sits in the low bin).
	if panel.Count("Make", "Chevrolet") == 0 {
		t.Error("panel digest hides alternative Make values")
	}
	// And for the Price attribute, counts exclude the Price filter but
	// keep Make=Ford.
	fordTotal := 0
	for _, vc := range panel.Attr("Price").Values {
		fordTotal += vc.Count
	}
	if fordTotal != 3 {
		t.Errorf("Price panel covers %d rows, want all 3 Fords", fordTotal)
	}
	// With no filters the panel digest equals the plain digest.
	s.Reset()
	p2, d2 := s.PanelDigest(), s.Digest()
	if DigestSimilarity(p2, d2) < 1-1e-9 {
		t.Error("panel digest differs from digest without filters")
	}
	// Non-queriable attributes stay hidden.
	if panel.Attr("Engine") != nil {
		t.Error("panel digest leaked hidden attribute")
	}
}

func TestSuggestPhase(t *testing.T) {
	v, rows := testView(t)
	tp := NewTPFacet(v, rows)
	// 8 tuples: small enough to browse.
	if got := tp.SuggestPhase(0); got != PhaseResults {
		t.Errorf("phase = %v, want results", got)
	}
	if got := tp.SuggestPhase(4); got != PhaseQueryRevision {
		t.Errorf("phase with limit 4 = %v, want query-revision", got)
	}
	if PhaseResults.String() != "results" || PhaseQueryRevision.String() != "query-revision" {
		t.Error("phase names")
	}
}

func TestTPFacetBuildCADView(t *testing.T) {
	v, rows := testView(t)
	tp := NewTPFacet(v, rows)
	view, err := tp.BuildCADView(core.Config{Pivot: "Make", K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Rows) != 3 {
		t.Errorf("CAD view rows = %d", len(view.Rows))
	}
	// The CAD View can pivot on the hidden attribute — Limitation 2 lifted.
	view, err = tp.BuildCADView(core.Config{Pivot: "Engine", K: 2, Seed: 1})
	if err != nil {
		t.Fatalf("pivot on non-queriable attribute: %v", err)
	}
	if len(view.Rows) != 3 {
		t.Errorf("Engine pivot rows = %d", len(view.Rows))
	}
	// Filters restrict the CAD View's result set.
	if err := tp.Select("Make", "Ford"); err != nil {
		t.Fatal(err)
	}
	view, err = tp.BuildCADView(core.Config{Pivot: "Engine", K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range view.Rows {
		total += r.Count
	}
	if total != 3 {
		t.Errorf("filtered CAD view covers %d tuples, want 3", total)
	}
}

// TestExtendDigestMatchesDeltaRecount pins the incremental digest
// contract: extending a digest over appended rows — counting only the
// delta under the view's pinned discretization — must equal a
// brute-force recount of every row. Dictionary values that only exist
// in the appended tail (codes past the view's snapshot cardinality) are
// invisible by design: they belong to the refreshed view, not to the
// stale-served one.
func TestExtendDigestMatchesDeltaRecount(t *testing.T) {
	v, base := testView(t)
	tbl := v.Table()
	oldN := v.Rows()
	d0 := NewSession(v, base).Digest()

	err := tbl.AppendBatch([][]any{
		{"Ford", "V6", 21000.0},
		{"Tesla", "EV", 55000.0}, // new dictionary values: invisible to the pinned view
		{"Jeep", "V8", math.NaN()},
		{"Chevrolet", "V4", 15500.0},
	})
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	newN := tbl.NumRows()
	got := ExtendDigest(v, d0, oldN, newN)

	for _, s := range got.Attrs {
		col, err := v.Column(s.Attr)
		if err != nil {
			t.Fatalf("column %q: %v", s.Attr, err)
		}
		card := col.Cardinality()
		want := make(map[string]int)
		for r := 0; r < newN; r++ {
			if code := col.Code(r); code >= 0 && code < card {
				want[col.Label(code)]++
			}
		}
		gotCounts := make(map[string]int)
		for _, vc := range s.Values {
			gotCounts[vc.Value] = vc.Count
		}
		if !reflect.DeepEqual(gotCounts, want) {
			t.Fatalf("%s: extended digest %v, recount %v", s.Attr, gotCounts, want)
		}
		for i := 1; i < len(s.Values); i++ {
			a, b := s.Values[i-1], s.Values[i]
			if a.Count < b.Count || (a.Count == b.Count && a.Value > b.Value) {
				t.Fatalf("%s: extended digest not sorted: %v before %v", s.Attr, a, b)
			}
		}
	}

	// The original digest is untouched and a no-op extension copies it.
	same := ExtendDigest(v, d0, oldN, oldN)
	if !reflect.DeepEqual(same, d0) {
		t.Fatal("zero-delta extension must copy the digest unchanged")
	}
}
