package facet

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// referenceRows recomputes the session's result set from scratch by
// row scanning — no bitmaps, no caches — using the session's own
// selections. It is the oracle the incremental path must match.
func referenceRows(s *Session) dataset.RowSet {
	base := s.baseBM.ToRowSet()
	sels := s.Selections()
	cols := make([]*dataview.Column, len(sels))
	for i, sel := range sels {
		cols[i], _ = s.view.Column(sel.Attr)
	}
	out := make(dataset.RowSet, 0, len(base))
rows:
	for _, r := range base {
		for i, sel := range sels {
			if !slices.Contains(sel.Values, cols[i].Label(cols[i].Code(r))) {
				continue rows
			}
		}
		out = append(out, r)
	}
	return out
}

// cellSummary is the digest reference for one column: a plain loop over
// the table's cells of rows counts the dictionary value of a categorical
// cell or the histogram bin of a numeric one, NaN in no bin, and lists
// the values count descending, then value ascending. It shares no code
// with the counting it checks.
func cellSummary(v *dataview.View, col *dataview.Column, rows dataset.RowSet) AttrSummary {
	tbl, h := v.Table(), col.Histogram()
	var labels []string
	if h != nil {
		labels = h.Labels()
	} else {
		labels = tbl.Cat(col.Col).Dict()
	}
	counts := make([]int, len(labels))
	for _, r := range rows {
		if h == nil {
			counts[tbl.Cat(col.Col).Code(r)]++
		} else if x := tbl.Num(col.Col).Value(r); !math.IsNaN(x) {
			counts[h.Bin(x)]++
		}
	}
	sum := AttrSummary{Attr: col.Attr}
	for i, n := range counts {
		if n > 0 {
			sum.Values = append(sum.Values, ValueCount{Value: labels[i], Count: n})
		}
	}
	sort.Slice(sum.Values, func(i, j int) bool {
		a, b := sum.Values[i], sum.Values[j]
		return a.Count > b.Count || a.Count == b.Count && a.Value < b.Value
	})
	return sum
}

// cellDigest is cellSummary over every queriable attribute.
func cellDigest(v *dataview.View, rows dataset.RowSet) []AttrSummary {
	var out []AttrSummary
	for _, col := range v.Columns() {
		if v.Table().Schema()[col.Col].Queriable {
			out = append(out, cellSummary(v, col, rows))
		}
	}
	return out
}

// TestSessionIncrementalEquivalence drives a session through random
// Select / Deselect / ClearAttr / Reset sequences and checks after
// every step that the incrementally maintained rows, count, digest,
// and panel digest all equal a recomputation by row loops over the
// table. The table runs past one 64K-row segment, so results span a
// segment edge.
func TestSessionIncrementalEquivalence(t *testing.T) {
	tbl := dataset.NewTable("cars", dataset.Schema{
		{Name: "Make", Kind: dataset.Categorical, Queriable: true},
		{Name: "Body", Kind: dataset.Categorical, Queriable: true},
		{Name: "Price", Kind: dataset.Numeric, Queriable: true},
	})
	rng := rand.New(rand.NewSource(11))
	makes := []string{"Ford", "Jeep", "Toyota", "Honda"}
	bodies := []string{"SUV", "Sedan", "Truck"}
	for i := 0; i < dataset.SegmentSize+600; i++ {
		tbl.MustAppendRow(
			makes[rng.Intn(len(makes))],
			bodies[rng.Intn(len(bodies))],
			float64(rng.Intn(40))*1000,
		)
	}
	v, err := dataview.New(tbl, dataview.Options{Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A strict-subset base exercises the FromRowSet branch of NewSession.
	// It keeps the rows on both sides of the segment edge, and enough of
	// them that unfiltered results are counted by intersection while
	// filtered ones are walked.
	var base dataset.RowSet
	for r := 0; r < tbl.NumRows(); r++ {
		if r%5 != 0 && (r < 6000 || r >= dataset.SegmentSize-6000) {
			base = append(base, r)
		}
	}
	s := NewSession(v, base)

	attrs := []string{"Make", "Body", "Price"}
	randomValue := func(attr string) string {
		col, _ := v.Column(attr)
		return col.Label(rng.Intn(col.Cardinality()))
	}
	for step := 0; step < 200; step++ {
		switch rng.Intn(10) {
		case 0:
			s.Reset()
		case 1:
			s.ClearAttr(attrs[rng.Intn(len(attrs))])
		case 2, 3:
			attr := attrs[rng.Intn(len(attrs))]
			// Errors (value not selected) are fine; state must stay valid.
			_ = s.Deselect(attr, randomValue(attr))
		default:
			attr := attrs[rng.Intn(len(attrs))]
			if err := s.Select(attr, randomValue(attr)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}

		want := referenceRows(s)
		got := s.Rows()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: rows diverged: incremental %d, reference %d", step, len(got), len(want))
		}
		if s.Count() != len(want) {
			t.Fatalf("step %d: count %d, want %d", step, s.Count(), len(want))
		}
		if !reflect.DeepEqual(s.Digest().Attrs, cellDigest(v, want)) {
			t.Fatalf("step %d: digest diverged from the cell loop", step)
		}
		if step%10 == 0 {
			// Panel digest: each attribute summarized over the rows kept
			// by every *other* attribute's filter.
			pd := s.PanelDigest()
			for _, as := range pd.Attrs {
				sel := s.Selections()
				excl := make(map[string]map[int]bool)
				for a, codes := range s.selected {
					if a != as.Attr {
						excl[a] = codes
					}
				}
				saved := s.selected
				savedOrder := s.order
				s.selected = excl
				s.order = nil
				for _, sl := range sel {
					if sl.Attr != as.Attr {
						s.order = append(s.order, sl.Attr)
					}
				}
				refExcl := referenceRows(s)
				s.selected = saved
				s.order = savedOrder
				col, _ := v.Column(as.Attr)
				if wantAS := cellSummary(v, col, refExcl); !reflect.DeepEqual(as, wantAS) {
					t.Fatalf("step %d: panel digest for %q diverged", step, as.Attr)
				}
			}
		}
	}
}
