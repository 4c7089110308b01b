package core

import (
	"reflect"
	"testing"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// buildLabels is labelsFromCounts fed by a per-row code tally over the
// cluster's member rows — the row-scan reference for the group-derived
// counts the build passes in.
func buildLabels(v *dataview.View, compareAttrs []string, rows dataset.RowSet) ([]Label, [][]float64, error) {
	counts := make([][]int, len(compareAttrs))
	for d, attr := range compareAttrs {
		col, err := v.Column(attr)
		if err != nil {
			return nil, nil, err
		}
		counts[d] = make([]int, col.Cardinality())
		for _, r := range rows {
			// NaN cells code -1 and belong to no value.
			if c := col.Code(r); c >= 0 {
				counts[d][c]++
			}
		}
	}
	return labelsFromCounts(v, compareAttrs, counts, len(rows))
}

// labelView builds a tiny one-column view whose code frequencies are
// fully controlled, to pin down groupValues behavior.
func labelView(t *testing.T, values []string) *dataview.Column {
	t.Helper()
	tbl := dataset.NewTable("t", dataset.Schema{{Name: "A", Kind: dataset.Categorical, Queriable: true}})
	for _, v := range values {
		tbl.MustAppendRow(v)
	}
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	col, err := v.Column("A")
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func repeat(v string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func groupsOf(t *testing.T, counts map[string]int) [][]string {
	t.Helper()
	var values []string
	for v, n := range counts {
		values = append(values, repeat(v, n)...)
	}
	col := labelView(t, values)
	raw := make([]int, col.Cardinality())
	total := 0
	for code := 0; code < col.Cardinality(); code++ {
		raw[code] = counts[col.Label(code)]
		total += raw[code]
	}
	groups := groupValues(col, raw, total)
	out := make([][]string, len(groups))
	for i, g := range groups {
		out[i] = g.Values
	}
	return out
}

func TestGroupValuesSimilarCountsShareBracket(t *testing.T) {
	// 50/48 are within the 20% tolerance: one bracket. 10 is far off
	// and below labelMinSupport·108 ≈ 16: dropped.
	got := groupsOf(t, map[string]int{"a": 50, "b": 48, "c": 10})
	want := [][]string{{"a", "b"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("groups = %v, want %v", got, want)
	}
}

func TestGroupValuesDistinctCountsSeparateBrackets(t *testing.T) {
	// 60 vs 35: separate brackets (gap > 20%), both above support.
	got := groupsOf(t, map[string]int{"a": 60, "b": 35})
	want := [][]string{{"a"}, {"b"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("groups = %v, want %v", got, want)
	}
}

func TestGroupValuesMaxGroupsCap(t *testing.T) {
	// Three brackets' worth of counts, all above support: the third is
	// cut at labelMaxGroups.
	got := groupsOf(t, map[string]int{"a": 60, "b": 40, "c": 25})
	want := [][]string{{"a"}, {"b"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("groups = %v, want %v", got, want)
	}
}

func TestGroupValuesMaxValuesCap(t *testing.T) {
	counts := map[string]int{"a": 50, "b": 50, "c": 50, "d": 50, "e": 50}
	got := groupsOf(t, counts)
	totalShown := 0
	for _, g := range got {
		totalShown += len(g)
	}
	if totalShown != labelMaxValues {
		t.Errorf("showed %d values (%v), want %d", totalShown, got, labelMaxValues)
	}
}

func TestGroupValuesDominantAlwaysShown(t *testing.T) {
	// Even a fragmented cluster shows its top value, though 11 of 101
	// rows is below labelMinSupport; the rest are cut by support.
	counts := map[string]int{}
	for _, v := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		counts[v] = 10
	}
	counts["a"] = 11
	got := groupsOf(t, counts)
	want := [][]string{{"a"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("groups = %v, want %v", got, want)
	}
}

func TestGroupValuesTieBreaksAlphabetically(t *testing.T) {
	got := groupsOf(t, map[string]int{"zed": 50, "ape": 50})
	if len(got) != 1 || got[0][0] != "ape" || got[0][1] != "zed" {
		t.Errorf("groups = %v, want alphabetical tie-break", got)
	}
}

func TestBuildLabelsFrequencies(t *testing.T) {
	tbl := dataset.NewTable("t", dataset.Schema{
		{Name: "A", Kind: dataset.Categorical, Queriable: true},
		{Name: "B", Kind: dataset.Categorical, Queriable: true},
	})
	for i := 0; i < 10; i++ {
		a := "x"
		if i >= 7 {
			a = "y"
		}
		tbl.MustAppendRow(a, "only")
	}
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	labels, freqs, err := buildLabels(v, []string{"A", "B"}, dataset.AllRows(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 2 || len(freqs) != 2 {
		t.Fatalf("labels=%d freqs=%d", len(labels), len(freqs))
	}
	colA, _ := v.Column("A")
	if freqs[0][colA.CodeOf("x")] != 7 || freqs[0][colA.CodeOf("y")] != 3 {
		t.Errorf("freq A = %v", freqs[0])
	}
	if labels[1].Groups[0].Values[0] != "only" {
		t.Errorf("label B = %+v", labels[1])
	}
	if _, _, err := buildLabels(v, []string{"Nope"}, dataset.AllRows(10)); err == nil {
		t.Error("unknown attribute: want error")
	}
}

func TestLabelsEmptyCluster(t *testing.T) {
	// A cluster with no rows must label to empty groups, not panic or
	// fabricate values — both from rows and from precomputed counts.
	tbl := dataset.NewTable("t", dataset.Schema{{Name: "A", Kind: dataset.Categorical, Queriable: true}})
	tbl.MustAppendRow("x")
	tbl.MustAppendRow("y")
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	labels, freqs, err := buildLabels(v, []string{"A"}, dataset.RowSet{})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels[0].Groups) != 0 {
		t.Errorf("empty cluster produced groups %v", labels[0].Groups)
	}
	for _, f := range freqs[0] {
		if f != 0 {
			t.Errorf("empty cluster freq = %v", freqs[0])
		}
	}
	colA, _ := v.Column("A")
	labels2, _, err := labelsFromCounts(v, []string{"A"}, [][]int{make([]int, colA.Cardinality())}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels2[0].Groups) != 0 {
		t.Errorf("empty counts produced groups %v", labels2[0].Groups)
	}
}

func TestSingleRowPivotValue(t *testing.T) {
	// A pivot value carried by exactly one result row must still yield a
	// pivot row with one singleton IUnit whose label is that row's values.
	tbl := dataset.NewTable("t", dataset.Schema{
		{Name: "Make", Kind: dataset.Categorical, Queriable: true},
		{Name: "Body", Kind: dataset.Categorical, Queriable: true},
	})
	for i := 0; i < 20; i++ {
		tbl.MustAppendRow("Common", "Sedan")
	}
	tbl.MustAppendRow("Rare", "Coupe")
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	view, _, err := Build(v, dataset.AllRows(tbl.NumRows()), Config{Pivot: "Make", K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var rare *PivotRow
	for _, r := range view.Rows {
		if r.Value == "Rare" {
			rare = r
		}
	}
	if rare == nil || rare.Count != 1 {
		t.Fatalf("rare pivot row = %+v", rare)
	}
	if len(rare.IUnits) != 1 || rare.IUnits[0].Size != 1 {
		t.Fatalf("rare IUnits = %+v", rare.IUnits)
	}
	g := rare.IUnits[0].Labels[0].Groups
	if len(g) != 1 || g[0].Values[0] != "Coupe" {
		t.Errorf("singleton label = %+v", g)
	}
}

func TestGroupValuesAllTiedFrequencies(t *testing.T) {
	// Exactly tied counts all fall inside any tolerance window: one
	// bracket, alphabetical, capped at labelMaxValues.
	got := groupsOf(t, map[string]int{"e": 20, "d": 20, "b": 20, "a": 20, "c": 20})
	want := [][]string{{"a", "b", "c", "d"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("groups = %v, want %v", got, want)
	}
	// And the bracketed rendering survives to the display string.
	l := Label{Attr: "A", Groups: []LabelGroup{{Values: want[0], Count: 20}}}
	if s := l.String(); s != "[a, b, c, d]" {
		t.Errorf("rendered label = %q", s)
	}
}

func TestGroupValuesMaxValuesTruncation(t *testing.T) {
	// Five values in two brackets, display budget 4: values rank by count
	// and the tail is cut mid-bracket (e is within 20% of d, so it would
	// share d's bracket).
	counts := map[string]int{"a": 50, "b": 48, "c": 46, "d": 39, "e": 38}
	got := groupsOf(t, counts)
	want := [][]string{{"a", "b", "c"}, {"d"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("groups = %v, want %v", got, want)
	}
}

func TestSampleRows(t *testing.T) {
	s := sampleRowsBitmap(dataset.FullBitmap(100), 10, 0)
	if len(s) != 10 {
		t.Errorf("sample size = %d", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Error("sample not increasing")
		}
	}
	// Requesting more than available returns everything.
	s = sampleRowsBitmap(dataset.FromRowSet(100, dataset.AllRows(5)), 10, 0)
	if len(s) != 5 {
		t.Errorf("oversample size = %d", len(s))
	}
	// Negative seeds behave.
	s = sampleRowsBitmap(dataset.FullBitmap(100), 10, -7)
	if len(s) != 10 {
		t.Errorf("negative seed sample size = %d", len(s))
	}
	// A nonzero offset must wrap rather than run off the end: every
	// seed yields exactly size distinct rows, even when size does not
	// divide len(rows).
	for _, n := range []int{97, 100, 101} {
		for seed := int64(-3); seed <= 120; seed += 7 {
			s := sampleRowsBitmap(dataset.FullBitmap(n), 10, seed)
			if len(s) != 10 {
				t.Fatalf("n=%d seed=%d: sample size = %d, want 10", n, seed, len(s))
			}
			seen := make(map[int]bool, len(s))
			for _, r := range s {
				if r < 0 || r >= n || seen[r] {
					t.Fatalf("n=%d seed=%d: bad or duplicate row %d in %v", n, seed, r, s)
				}
				seen[r] = true
			}
		}
	}
}
