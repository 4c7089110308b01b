package engine

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dbexplorer/internal/core"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/facet"
	"dbexplorer/internal/featsel"
	"dbexplorer/internal/stats"
)

// pivotCounts tallies the pivot value of every row in a plain row loop
// and returns "value:count" pairs in CAD View row order: count
// descending, value ascending. NaN cells belong to no pivot value.
func pivotCounts(col *dataview.Column, rows dataset.RowSet) []string {
	counts := map[string]int{}
	for _, r := range rows {
		if c := col.Code(r); c >= 0 {
			counts[col.Label(c)]++
		}
	}
	vals := make([]string, 0, len(counts))
	for val := range counts {
		vals = append(vals, val)
	}
	sort.Slice(vals, func(i, j int) bool {
		if counts[vals[i]] != counts[vals[j]] {
			return counts[vals[i]] > counts[vals[j]]
		}
		return vals[i] < vals[j]
	})
	out := make([]string, len(vals))
	for i, val := range vals {
		out[i] = fmt.Sprintf("%s:%d", val, counts[val])
	}
	return out
}

// rowLoopChiSquare is the ranking reference for the build's Compare
// Attribute scores, sharing no code with featsel's contingency fill: each
// candidate's table is counted by a plain loop over the rows' view codes
// (classes numbered in order of first occurrence, NaN cells counted
// nowhere), scored by stats.ChiSquare, and sorted statistic descending,
// then name ascending.
func rowLoopChiSquare(t *testing.T, v *dataview.View, rows dataset.RowSet, class string, candidates []string) []featsel.Score {
	t.Helper()
	cc, err := v.Column(class)
	if err != nil {
		t.Fatal(err)
	}
	classOf := map[int]int{}
	for _, r := range rows {
		if c := cc.Code(r); c >= 0 {
			if _, ok := classOf[c]; !ok {
				classOf[c] = len(classOf)
			}
		}
	}
	out := make([]featsel.Score, len(candidates))
	for j, name := range candidates {
		col, err := v.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		table := stats.NewContingencyTable(col.Cardinality(), len(classOf))
		for _, r := range rows {
			if c, x := cc.Code(r), col.Code(r); c >= 0 && x >= 0 {
				table.Counts[x][classOf[c]]++
			}
		}
		res, err := stats.ChiSquare(table)
		if err != nil {
			t.Fatal(err)
		}
		out[j] = featsel.Score{Attr: name, Stat: res.Stat, PValue: res.PValue}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Stat != out[j].Stat {
			return out[i].Stat > out[j].Stat
		}
		return out[i].Attr < out[j].Attr
	})
	return out
}

// viewPivotCounts lists a CAD View's pivot rows as "value:count" pairs.
func viewPivotCounts(view *core.CADView) []string {
	out := make([]string, len(view.Rows))
	for i, row := range view.Rows {
		out[i] = fmt.Sprintf("%s:%d", row.Value, row.Count)
	}
	return out
}

// TestCorpusCADViewBitmapMatchesScan is the CAD View counterpart of the
// WHERE-corpus equivalence test: for every corpus result set, across
// categorical and numeric pivots, the chi-square scores the build ranks
// Compare Attributes by must equal the row-loop reference's bit for bit,
// the build must equal BuildBitmap over a facet session on the same
// rows, and its pivot rows must carry the values and counts of a plain
// row loop.
func TestCorpusCADViewBitmapMatchesScan(t *testing.T) {
	tbl := carsTable(t, 400, 1)
	s := NewSession()
	if err := s.Register(tbl); err != nil {
		t.Fatal(err)
	}
	v, err := dataview.New(tbl, dataview.Options{Bins: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queryCorpus {
		r, err := s.Exec(q)
		if err != nil {
			t.Fatalf("%s: exec: %v", q, err)
		}
		if len(r.Rows) == 0 {
			continue // empty result sets cannot host a CAD View
		}
		for _, pivot := range []string{"Make", "Price"} {
			cfg := core.Config{Pivot: pivot, K: 3, MaxCompare: 5, Seed: 1}
			got, _, err := core.Build(v, r.Rows, cfg)
			if err != nil {
				t.Fatalf("%s pivot %s: %v", q, pivot, err)
			}
			var candidates []string
			for _, col := range v.Columns() {
				if col.Attr != pivot {
					candidates = append(candidates, col.Attr)
				}
			}
			ctx := context.Background()
			scores, err := featsel.ChiSquareContext(ctx, v, r.Rows, pivot, candidates)
			if err != nil {
				t.Fatalf("%s pivot %s: ranking: %v", q, pivot, err)
			}
			if want := rowLoopChiSquare(t, v, r.Rows, pivot, candidates); !reflect.DeepEqual(scores, want) {
				t.Errorf("%s pivot %s: scores %v, row loop %v", q, pivot, scores, want)
			}
			fromSession, _, err := core.BuildBitmap(ctx, v, facet.NewSession(v, r.Rows).Bitmap(), cfg)
			if err != nil {
				t.Fatalf("%s pivot %s: BuildBitmap over a facet session: %v", q, pivot, err)
			}
			if !reflect.DeepEqual(fromSession, got) {
				t.Errorf("%s pivot %s: BuildBitmap over a facet session diverged from BuildContext", q, pivot)
			}
			pivotCol, err := v.Column(pivot)
			if err != nil {
				t.Fatal(err)
			}
			if gotPV, wantPV := viewPivotCounts(got), pivotCounts(pivotCol, r.Rows); !reflect.DeepEqual(gotPV, wantPV) {
				t.Errorf("%s pivot %s: pivot rows %v, row loop %v", q, pivot, gotPV, wantPV)
			}
		}
	}
}
