// Benchmark of dataview.Tally, the one routine that counts facet values
// for digests, panels, drill-downs and completion. Tally has two
// methods, walk and AndLen, and its cut (Universe()/8) picks one from
// the result's size. Each result set is counted three ways: by Tally
// itself, and by each method forced here by a plain loop — one walk of
// the result's rows over every column's code segments, and one
// intersect-popcount per posting. Results run from a few rows to the
// whole table on the 40K-row cars fixture and the 1M-row Zipf fixture,
// so the cut is measured from both sides; whole-table results count by
// AndLen.
package dbexplorer_test

import (
	"fmt"
	"testing"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/facet"
	"dbexplorer/internal/parallel"
)

var tallySink [][]int

func BenchmarkTally(b *testing.B) {
	fixtures(b)
	zipfFixture(b)
	type sel struct{ attr, value string }
	for _, fx := range []struct {
		name    string
		v       *dataview.View
		results [][]sel
	}{
		{"cars", carView, [][]sel{
			nil,
			{{"BodyType", "Sedan"}},
			{{"BodyType", "Sedan"}, {"Transmission", "Automatic"}},
			{{"Color", "Red"}},
			{{"Color", "Red"}, {"BodyType", "SUV"}},
		}},
		{"zipf", zipfView, [][]sel{
			nil,
			{{"c1", "v0000"}},
			{{"c1", "v0001"}},
			{{"c1", "v0003"}},
			{{"c1", "v0000"}, {"c2", "v0001"}},
			{{"c1", "v0000"}, {"c2", "v0001"}, {"c3", "v0000"}},
		}},
	} {
		cols := fx.v.Columns()
		for _, c := range cols {
			c.Postings() // time counting, not the one-off posting build
		}
		for _, sels := range fx.results {
			sess := facet.NewSessionBitmap(fx.v, dataset.FullBitmap(fx.v.Rows()))
			for _, s := range sels {
				if err := sess.Select(s.attr, s.value); err != nil {
					b.Fatal(err)
				}
			}
			rows := sess.Bitmap()
			name := fmt.Sprintf("%s/rows=%d", fx.name, rows.Len())
			b.Run(name+"/tally", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tallySink = dataview.Tally(rows, cols)
				}
			})
			b.Run(name+"/walk", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tallySink = walkCounts(rows, cols)
				}
			})
			b.Run(name+"/andlen", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tallySink = andLenCounts(rows, cols)
				}
			})
		}
	}
}

// walkCounts counts codes by visiting every row of rows once.
func walkCounts(rows *dataset.Bitmap, cols []*dataview.Column) [][]int {
	out := make([][]int, len(cols))
	segs := make([][][]int32, len(cols))
	for i, c := range cols {
		out[i], segs[i] = make([]int, c.Cardinality()), c.CodeSegs()
	}
	rows.ForEach(func(r int) {
		for i := range segs {
			if code := segs[i][r>>dataset.SegmentBits][r&dataset.SegmentMask]; code >= 0 {
				out[i][code]++
			}
		}
	})
	return out
}

// andLenCounts counts codes by one intersect-popcount per posting, one
// column per task on the shared pool.
func andLenCounts(rows *dataset.Bitmap, cols []*dataview.Column) [][]int {
	out := make([][]int, len(cols))
	parallel.Do(len(cols), func(i int) {
		out[i] = make([]int, cols[i].Cardinality())
		for code, p := range cols[i].Postings() {
			out[i][code] = rows.AndLen(p)
		}
	})
	return out
}
