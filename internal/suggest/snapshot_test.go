package suggest

import (
	"context"
	"math"
	"strconv"
	"testing"

	"dbexplorer/internal/cadql"
	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// snapshotCounter is the brute-force side of the snapshot tests: it
// scans the first n table rows (the view's snapshot) cell by cell.
type snapshotCounter struct {
	t    *testing.T
	view *dataview.View
	n    int
}

// holds reports whether row r satisfies attr = value (categorical) or
// lies in the bin labeled value (numeric).
func (c snapshotCounter) holds(r int, attr, value string) bool {
	col, err := c.view.Column(attr)
	if err != nil {
		c.t.Fatal(err)
	}
	tbl := c.view.Table()
	if col.Kind == dataset.Categorical {
		return tbl.Cat(col.Col).Value(r) == value
	}
	x := tbl.Num(col.Col).Value(r)
	return !math.IsNaN(x) && col.Histogram().Label(col.Histogram().Bin(x)) == value
}

// rows returns the snapshot rows passing every selection and keep.
func (c snapshotCounter) rows(sels []Selection, keep func(r int) bool) []int {
	var out []int
rows:
	for r := 0; r < c.n; r++ {
		for _, sel := range sels {
			hit := false
			for _, v := range sel.Values {
				hit = hit || c.holds(r, sel.Attr, v)
			}
			if !hit {
				continue rows
			}
		}
		if keep == nil || keep(r) {
			out = append(out, r)
		}
	}
	return out
}

func (c snapshotCounter) num(r int, attr string) float64 {
	col, err := c.view.Column(attr)
	if err != nil {
		c.t.Fatal(err)
	}
	return c.view.Table().Num(col.Col).Value(r)
}

// growPastView appends rows the view never sees: copies of existing rows
// under a Make the view's dictionary lacks, with every numeric cell null.
func growPastView(t *testing.T, tbl *dataset.Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		row := make([]any, len(tbl.Schema()))
		for c, a := range tbl.Schema() {
			switch {
			case a.Name == "Make":
				row[c] = "Zephyr"
			case a.Kind == dataset.Categorical:
				row[c] = tbl.Cat(c).Value(i)
			default:
				row[c] = math.NaN()
			}
		}
		tbl.MustAppendRow(row...)
	}
	tbl.Index() // the live index now covers rows the view does not
}

// TestSuggestAnswersFromViewSnapshot pins the ingest regressions: with
// the table grown past the serving view (a new dictionary value, null
// numeric cells), completion and drill-down against the old view must
// count exactly the view's rows — no index past its labels, no
// universe mismatch panic, no appended row in any count. Both a
// suggester warmed before the append and one built cold after it.
func TestSuggestAnswersFromViewSnapshot(t *testing.T) {
	for _, warm := range []bool{true, false} {
		tbl := datagen.UsedCars(1500, 5)
		v, err := dataview.New(tbl, dataview.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := BuildModel(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		s := New(v, m)
		if warm {
			if err := s.Warm(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		growPastView(t, tbl, 700)
		if !warm {
			s = New(v, m)
		}
		bf := snapshotCounter{t: t, view: v, n: v.Rows()}
		checkSnapshotCompletion(t, s, bf)
		checkSnapshotDrill(t, s, bf, nil)
		checkSnapshotDrill(t, s, bf, []Selection{{Attr: "BodyType", Values: []string{"SUV", "Sedan"}}})
		checkSnapshotDrill(t, s, bf, []Selection{{Attr: "Make", Values: []string{"Ford"}}})
	}
}

func checkSnapshotCompletion(t *testing.T, s *Suggester, bf snapshotCounter) {
	t.Helper()
	ctx := context.Background()
	below := func(attr string, c float64) func(int) bool {
		return func(r int) bool { return bf.num(r, attr) < c }
	}
	// Categorical values under an unfiltered and a numeric prefix.
	for _, tc := range []struct {
		input string
		keep  func(int) bool
	}{
		{"SELECT * FROM UsedCars WHERE Make = ", nil},
		{"SELECT * FROM UsedCars WHERE Price < 20000 AND Make = ", below("Price", 20000)},
		{"SELECT * FROM UsedCars WHERE Mileage BETWEEN 0 AND 60000 AND Make = ", func(r int) bool {
			x := bf.num(r, "Mileage")
			return x >= 0 && x <= 60000
		}},
	} {
		c, err := s.Complete(ctx, tc.input, Options{Limit: MaxLimit})
		if err != nil {
			t.Fatalf("Complete(%q): %v", tc.input, err)
		}
		for _, cand := range c.Candidates {
			if cand.Category != cadql.ExpectValue {
				continue
			}
			val := unquote(cand.Text)
			want := len(bf.rows([]Selection{{Attr: "Make", Values: []string{val}}}, tc.keep))
			if val == "Zephyr" || cand.Count != want {
				t.Errorf("%q: Make=%s count = %d, view snapshot holds %d", tc.input, val, cand.Count, want)
			}
		}
	}
	// Numeric literals, unfiltered and under a categorical prefix. A
	// value frontier counts rows equal to each edge; BETWEEN's lower
	// bound counts rows at or above it.
	atLeast := func(x, edge float64) bool { return x >= edge }
	equal := func(x, edge float64) bool { return x == edge }
	ford := []Selection{{Attr: "Make", Values: []string{"Ford"}}}
	for _, tc := range []struct {
		input string
		sels  []Selection
		match func(x, edge float64) bool
	}{
		{"SELECT * FROM UsedCars WHERE Price BETWEEN ", nil, atLeast},
		{"SELECT * FROM UsedCars WHERE Make = Ford AND Price BETWEEN ", ford, atLeast},
		{"SELECT * FROM UsedCars WHERE Price = ", nil, equal},
		{"SELECT * FROM UsedCars WHERE Make = Ford AND Price = ", ford, equal},
	} {
		c, err := s.Complete(ctx, tc.input, Options{Limit: MaxLimit})
		if err != nil {
			t.Fatalf("Complete(%q): %v", tc.input, err)
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
			want := len(bf.rows(tc.sels, func(r int) bool { return tc.match(bf.num(r, "Price"), edge) }))
			if cand.Count != want {
				t.Errorf("%q: %s count = %d, view snapshot holds %d", tc.input, cand.Text, cand.Count, want)
			}
		}
		if nums == 0 {
			t.Errorf("%q: no numeric candidates", tc.input)
		}
	}
}

func checkSnapshotDrill(t *testing.T, s *Suggester, bf snapshotCounter, sels []Selection) {
	t.Helper()
	d, err := s.Drill(context.Background(), sels, Options{Limit: MaxLimit, MaxValues: MaxLimit, IncludeDeadEnds: true})
	if err != nil {
		t.Fatalf("Drill(%v): %v", sels, err)
	}
	if want := len(bf.rows(sels, nil)); d.Total != want {
		t.Fatalf("Drill(%v) total = %d, view snapshot holds %d", sels, d.Total, want)
	}
	for _, a := range d.Attrs {
		for _, vs := range a.Values {
			want := len(bf.rows(append([]Selection{{Attr: a.Attr, Values: []string{vs.Value}}}, sels...), nil))
			if vs.Value == "Zephyr" || vs.Count != want {
				t.Errorf("Drill(%v): %s=%s count = %d, view snapshot holds %d", sels, a.Attr, vs.Value, vs.Count, want)
			}
		}
	}
}
