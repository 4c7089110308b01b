package dataview

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dbexplorer/internal/dataset"
)

// tallyTable builds n rows over a skewed categorical column, a
// three-value one, and a numeric column whose every eleventh cell is
// NaN.
func tallyTable(t *testing.T, n int) *dataset.Table {
	t.Helper()
	tbl := dataset.NewTable("tally", dataset.Schema{
		{Name: "c0", Kind: dataset.Categorical, Queriable: true},
		{Name: "c1", Kind: dataset.Categorical, Queriable: true},
		{Name: "x", Kind: dataset.Numeric, Queriable: true},
	})
	rng := rand.New(rand.NewSource(int64(n)))
	rows := make([][]any, n)
	for r := range rows {
		x := rng.Float64() * 1000
		if r%11 == 0 {
			x = math.NaN()
		}
		rows[r] = []any{fmt.Sprintf("v%02d", rng.Intn(1+rng.Intn(40))), []string{"a", "b", "c"}[rng.Intn(3)], x}
	}
	if err := tbl.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// cellCounts is the reference Tally must match: a plain loop over the
// table's cells, keyed by label — the dictionary value of a categorical
// cell, the histogram bin of a numeric one, and no bin for NaN.
func cellCounts(tbl *dataset.Table, c *Column, rows *dataset.Bitmap) map[string]int {
	out := map[string]int{}
	for r := 0; r < rows.Universe(); r++ {
		if !rows.Contains(r) {
			continue
		}
		if cat := tbl.Cat(c.Col); cat != nil {
			out[cat.Value(r)]++
		} else if v := tbl.Num(c.Col).Value(r); !math.IsNaN(v) {
			out[c.Histogram().Label(c.Histogram().Bin(v))]++
		}
	}
	return out
}

// TestTallyMatchesCellLoop checks every method of Tally against a loop
// over table cells, at the segment boundary shapes: one partial segment,
// one row past a segment edge, and two full segments. The bitmaps are
// empty, one row (the first of the last segment), sparse enough to be
// walked (every 97th row plus both rows at every segment edge), dense
// enough to be intersected, and full.
func TestTallyMatchesCellLoop(t *testing.T) {
	for _, n := range []int{40000, dataset.SegmentSize + 1, 2 * dataset.SegmentSize} {
		tbl := tallyTable(t, n)
		v, err := New(tbl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		one, sparse, dense := dataset.NewBitmap(n), dataset.NewBitmap(n), dataset.NewBitmap(n)
		one.Add((n - 1) &^ dataset.SegmentMask)
		for r := 0; r < n; r++ {
			edge := r&dataset.SegmentMask == 0 || r&dataset.SegmentMask == dataset.SegmentMask || r == n-1
			if r%97 == 0 || edge {
				sparse.Add(r)
			}
			if r%3 != 0 {
				dense.Add(r)
			}
		}
		if sparse.Len() >= n/walkDiv || dense.Len() < n/walkDiv {
			t.Fatalf("n=%d: sparse %d and dense %d rows do not straddle the cut", n, sparse.Len(), dense.Len())
		}
		for _, bm := range []struct {
			name string
			rows *dataset.Bitmap
		}{
			{"empty", dataset.NewBitmap(n)},
			{"one row", one},
			{"sparse", sparse},
			{"dense", dense},
			{"full", dataset.FullBitmap(n)},
		} {
			counts := Tally(bm.rows, v.Columns())
			for i, c := range v.Columns() {
				got := map[string]int{}
				for code, k := range counts[i] {
					if k != 0 {
						got[c.Label(code)] += k
					}
				}
				if want := cellCounts(tbl, c, bm.rows); !reflect.DeepEqual(got, want) {
					t.Errorf("n=%d %s %s: Tally %v, cell loop %v", n, bm.name, c.Attr, got, want)
				}
			}
		}
	}
}
