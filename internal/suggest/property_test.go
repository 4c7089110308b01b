package suggest

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/fault"
)

// TestDrillCountsMatchBruteForce is the dead-end acceptance property:
// over random filter sets, every value count the drill-down reports
// must equal a brute-force row scan, and the DeadEnd flag must hold
// exactly when that count is zero (AndLen == 0).
func TestDrillCountsMatchBruteForce(t *testing.T) {
	tbl := datagen.UsedCars(800, 7)
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(v, nil) // model irrelevant to counting
	rng := rand.New(rand.NewSource(42))
	catAttrs := []string{"Make", "Model", "BodyType", "Drivetrain", "Transmission", "Color"}

	for trial := 0; trial < 25; trial++ {
		sels := randomSelections(t, rng, s, catAttrs)
		d, err := s.Drill(context.Background(), sels, Options{
			Limit: 100, MaxValues: 100, IncludeDeadEnds: true,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		survivors := bruteForceRows(tbl, s, sels)
		if d.Total != len(survivors) {
			t.Fatalf("trial %d: total = %d, brute force = %d", trial, d.Total, len(survivors))
		}
		if d.DeadEnd != (len(survivors) == 0) {
			t.Fatalf("trial %d: DeadEnd = %v with %d rows", trial, d.DeadEnd, len(survivors))
		}
		for _, a := range d.Attrs {
			want := bruteForceValueCounts(t, tbl, s, a.Attr, survivors)
			for _, vs := range a.Values {
				if vs.Count != want[vs.Value] {
					t.Errorf("trial %d: %s=%s count = %d, brute force = %d",
						trial, a.Attr, vs.Value, vs.Count, want[vs.Value])
				}
				if vs.DeadEnd != (want[vs.Value] == 0) {
					t.Errorf("trial %d: %s=%s DeadEnd = %v with %d rows",
						trial, a.Attr, vs.Value, vs.DeadEnd, want[vs.Value])
				}
			}
		}
	}
}

// randomSelections picks 1-3 categorical attributes and 1-3 values
// each, occasionally an impossible combination (that is the point).
func randomSelections(t *testing.T, rng *rand.Rand, s *Suggester, attrs []string) []Selection {
	t.Helper()
	n := 1 + rng.Intn(3)
	perm := rng.Perm(len(attrs))
	var sels []Selection
	for _, i := range perm[:n] {
		col, err := s.view.Column(attrs[i])
		if err != nil {
			t.Fatal(err)
		}
		card := col.Cardinality()
		k := 1 + rng.Intn(3)
		if k > card {
			k = card
		}
		vals := make([]string, 0, k)
		for _, c := range rng.Perm(card)[:k] {
			vals = append(vals, col.Label(c))
		}
		sels = append(sels, Selection{Attr: attrs[i], Values: vals})
	}
	return sels
}

// bruteForceRows scans the table row by row against facet semantics.
func bruteForceRows(tbl *dataset.Table, s *Suggester, sels []Selection) []int {
	var out []int
rows:
	for row := 0; row < tbl.NumRows(); row++ {
		for _, sel := range sels {
			col, err := s.view.Column(sel.Attr)
			if err != nil {
				panic(err)
			}
			cat := tbl.Cat(col.Col)
			hit := false
			for _, v := range sel.Values {
				if cat.Value(row) == v {
					hit = true
					break
				}
			}
			if !hit {
				continue rows
			}
		}
		out = append(out, row)
	}
	return out
}

// bruteForceValueCounts counts each value of attr over the surviving
// rows, keyed the way drill-down labels them (dictionary values for
// categorical attributes, histogram-bin labels for numeric ones; NaN
// rows belong to no bin).
func bruteForceValueCounts(t *testing.T, tbl *dataset.Table, s *Suggester, attr string, rows []int) map[string]int {
	t.Helper()
	col, err := s.view.Column(attr)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	if col.Kind == dataset.Categorical {
		cat := tbl.Cat(col.Col)
		for _, row := range rows {
			out[cat.Value(row)]++
		}
		return out
	}
	num := tbl.Num(col.Col)
	hist := col.Histogram()
	for _, row := range rows {
		val := num.Value(row)
		if math.IsNaN(val) {
			continue
		}
		out[hist.Label(hist.Bin(val))]++
	}
	return out
}

// TestSuggestZeroRowScans is the hot-path acceptance check: after
// Warm(), no completion or drill-down request builds an index or a
// posting set. Requests still read rows — dataview.Tally walks a sparse
// result's rows over the view's code segments — but every lazy build
// sits behind a fault point, and arming all of them with unconditional
// panics proves no request triggers one.
func TestSuggestZeroRowScans(t *testing.T) {
	tbl := datagen.UsedCars(1000, 3)
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildModel(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	s := New(v, m)
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}

	in := fault.NewInjector().
		Panic(fault.PointIndexCat, 0).
		Panic(fault.PointIndexNum, 0).
		Panic(fault.PointViewPostings, 0)
	restore := fault.Activate(in)
	defer restore()

	ctx := context.Background()
	for _, input := range []string{
		"SELECT * FROM UsedCars WHERE Make = ",
		"SELECT * FROM UsedCars WHERE Make = Ford AND Model = ",
		"SELECT * FROM UsedCars WHERE Price < ",
		"SELECT * FROM UsedCars WHERE Price BETWEEN ",
		"SELECT * FROM UsedCars WHERE BodyType = SUV AND Mileage ",
		"SELECT * FROM UsedCars WHERE ",
	} {
		if _, err := s.Complete(ctx, input, Options{Limit: 50}); err != nil {
			t.Fatalf("Complete(%q): %v", input, err)
		}
	}
	for _, sels := range [][]Selection{
		nil,
		{{Attr: "Make", Values: []string{"Ford"}}},
		{{Attr: "Make", Values: []string{"Ford", "Honda"}}, {Attr: "BodyType", Values: []string{"SUV"}}},
	} {
		if _, err := s.Drill(ctx, sels, Options{Limit: 50, IncludeDeadEnds: true}); err != nil {
			t.Fatalf("Drill(%v): %v", sels, err)
		}
	}
	for _, p := range []fault.Point{fault.PointIndexCat, fault.PointIndexNum, fault.PointViewPostings} {
		if n := in.Hits(p); n != 0 {
			t.Errorf("lazy build %s hit %d times after Warm", p, n)
		}
	}
}
