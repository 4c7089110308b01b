package facet

import (
	"math/rand"
	"reflect"
	"testing"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// referenceRows recomputes the session's result set from scratch by
// row scanning — no bitmaps, no caches — using the session's own
// selections. It is the oracle the incremental path must match.
func referenceRows(s *Session) dataset.RowSet {
	base := s.baseBM.ToRowSet()
	out := make(dataset.RowSet, 0, len(base))
rows:
	for _, r := range base {
		for _, sel := range s.Selections() {
			col, _ := s.view.Column(sel.Attr)
			hit := false
			for _, val := range sel.Values {
				if col.Label(col.Code(r)) == val {
					hit = true
					break
				}
			}
			if !hit {
				continue rows
			}
		}
		out = append(out, r)
	}
	return out
}

// TestSessionIncrementalEquivalence drives a session through random
// Select / Deselect / ClearAttr / Reset sequences and checks after
// every step that the incrementally maintained rows, count, digest,
// and panel digest all equal a from-scratch recomputation.
func TestSessionIncrementalEquivalence(t *testing.T) {
	tbl := dataset.NewTable("cars", dataset.Schema{
		{Name: "Make", Kind: dataset.Categorical, Queriable: true},
		{Name: "Body", Kind: dataset.Categorical, Queriable: true},
		{Name: "Price", Kind: dataset.Numeric, Queriable: true},
	})
	rng := rand.New(rand.NewSource(11))
	makes := []string{"Ford", "Jeep", "Toyota", "Honda"}
	bodies := []string{"SUV", "Sedan", "Truck"}
	for i := 0; i < 600; i++ {
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
	var base dataset.RowSet
	for r := 0; r < tbl.NumRows(); r++ {
		if r%5 != 0 {
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
		wantDigest := Summarize(v, want, true)
		if !reflect.DeepEqual(s.Digest().Attrs, wantDigest.Attrs) {
			t.Fatalf("step %d: digest diverged from Summarize reference", step)
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
				wantAS := Summarize(v, refExcl, true).Attr(as.Attr)
				if !reflect.DeepEqual(&as, wantAS) {
					t.Fatalf("step %d: panel digest for %q diverged", step, as.Attr)
				}
			}
		}
	}
}
