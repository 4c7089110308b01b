// Top-level segment-boundary equivalence: tables whose row counts land
// on every awkward segment shape — well inside one segment, one row past
// a segment edge, and an exact multiple of the segment size — must
// produce CAD Views whose bitmap chi-square scores match the row scan's
// bit for bit and whose pivot rows match a row loop, facet digests and
// panels that match a loop over table cells, and compiled predicate
// plans that select the same rows cold (no postings yet) and warm.
package dbexplorer_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"dbexplorer/internal/core"
	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/expr"
	"dbexplorer/internal/facet"
	"dbexplorer/internal/featsel"
)

// boundaryRowCounts covers a single partial segment, a one-row tail
// spilling into a second segment, and exactly two full segments.
var boundaryRowCounts = []int{40000, dataset.SegmentSize + 1, 2 * dataset.SegmentSize}

// appendBoundaryShapes are (base, final) row counts whose append deltas
// land one row before, exactly on, and one row past the 64K segment
// boundary, plus a growth that stays inside one segment and one that
// opens a full new segment.
var appendBoundaryShapes = [][2]int{
	{dataset.SegmentSize - 100, dataset.SegmentSize - 1},
	{dataset.SegmentSize - 100, dataset.SegmentSize},
	{dataset.SegmentSize - 100, dataset.SegmentSize + 1},
	{dataset.SegmentSize + 50, 2 * dataset.SegmentSize},
	{40000, 41000},
}

func boundaryZipf(n int) *dataset.Table {
	return datagen.ZipfTable(fmt.Sprintf("boundary%d", n), n, []datagen.ZipfColumn{
		{Name: "c0", Card: 50, S: 1.3},
		{Name: "c1", Card: 40, S: 1.2},
	}, int64(n))
}

// interpretRows is the row-at-a-time interpreter: the rows of the input
// on which e.Eval holds, in input order.
func interpretRows(t *dataset.Table, rows dataset.RowSet, e expr.Expr) (dataset.RowSet, error) {
	if err := e.Validate(t); err != nil {
		return nil, err
	}
	out := dataset.RowSet{}
	for _, r := range rows {
		ok, err := e.Eval(t, r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// checkBoundaryCADView builds the boundary CAD View over rows and
// requires the chi-square scores the build ranks Compare Attributes by,
// which come from posting-bitmap contingency tables, to equal the
// row-scan ranker's over the same rows, score for score. BuildBitmap over
// a facet session on the same rows must give the same CAD View. The
// pivot rows must carry the values and counts of a plain row loop (count
// descending, value ascending). It returns the build.
func checkBoundaryCADView(t *testing.T, v *dataview.View, rows dataset.RowSet) *core.CADView {
	t.Helper()
	cfg := core.Config{Pivot: "c0", MaxCompare: 2, K: 2, L: 3, Seed: 1}
	got, _, err := core.Build(v, rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromSession, _, err := core.BuildBitmap(context.Background(), v, facet.NewSession(v, rows).Bitmap(), cfg)
	if err != nil {
		t.Fatalf("BuildBitmap over a facet session: %v", err)
	}
	if !reflect.DeepEqual(fromSession, got) {
		t.Error("BuildBitmap over a facet session differs from BuildContext over the same rows")
	}
	var candidates []string
	for _, col := range v.Columns() {
		if col.Attr != cfg.Pivot {
			candidates = append(candidates, col.Attr)
		}
	}
	scan, err := featsel.ChiSquareContext(context.Background(), v, rows, cfg.Pivot, candidates)
	if err != nil {
		t.Fatalf("row-scan ranking: %v", err)
	}
	bitmap, err := featsel.ChiSquareBitmapContext(context.Background(), v, rows.Bitmap(v.Rows()), cfg.Pivot, candidates)
	if err != nil {
		t.Fatalf("bitmap ranking: %v", err)
	}
	if !reflect.DeepEqual(bitmap, scan) {
		t.Errorf("bitmap scores %v, row-scan scores %v", bitmap, scan)
	}
	pivotCol, err := v.Column(cfg.Pivot)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range rows {
		if c := pivotCol.Code(r); c >= 0 {
			counts[pivotCol.Label(c)]++
		}
	}
	wantVals := make([]string, 0, len(counts))
	for val := range counts {
		wantVals = append(wantVals, val)
	}
	sort.Slice(wantVals, func(i, j int) bool {
		if counts[wantVals[i]] != counts[wantVals[j]] {
			return counts[wantVals[i]] > counts[wantVals[j]]
		}
		return wantVals[i] < wantVals[j]
	})
	if len(got.Rows) != len(wantVals) {
		t.Fatalf("CAD View has %d pivot rows, row loop finds %d values", len(got.Rows), len(wantVals))
	}
	for i, row := range got.Rows {
		if row.Value != wantVals[i] || row.Count != counts[wantVals[i]] {
			t.Fatalf("pivot row %d = %s:%d, row loop %s:%d", i, row.Value, row.Count, wantVals[i], counts[wantVals[i]])
		}
	}
	return got
}

// checkCellSummary requires sum to list, count descending then value
// ascending, the values a plain loop over the table's cells counts over
// rows: dictionary values, histogram bins of numeric values, NaN in no
// bin.
func checkCellSummary(t *testing.T, v *dataview.View, sum facet.AttrSummary, rows dataset.RowSet, what string) {
	t.Helper()
	col, err := v.Column(sum.Attr)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, r := range rows {
		if cat := v.Table().Cat(col.Col); cat != nil {
			want[cat.Value(r)]++
		} else if x := v.Table().Num(col.Col).Value(r); !math.IsNaN(x) {
			want[col.Histogram().Label(col.Histogram().Bin(x))]++
		}
	}
	if len(sum.Values) != len(want) {
		t.Fatalf("%s %s: %d values, cell loop finds %d", what, sum.Attr, len(sum.Values), len(want))
	}
	for i, vc := range sum.Values {
		if vc.Count != want[vc.Value] {
			t.Fatalf("%s %s=%s: count %d, cell loop %d", what, sum.Attr, vc.Value, vc.Count, want[vc.Value])
		}
		if prev := sum.Values[max(i-1, 0)]; prev.Count < vc.Count || prev.Count == vc.Count && prev.Value > vc.Value {
			t.Fatalf("%s %s: %v out of order", what, sum.Attr, sum.Values)
		}
	}
}

// cellRows returns the rows whose categorical cells hold the given
// value of every named attribute, by a plain loop over the table.
func cellRows(tbl *dataset.Table, eq map[string]string) dataset.RowSet {
	var out dataset.RowSet
rows:
	for r := 0; r < tbl.NumRows(); r++ {
		for attr, val := range eq {
			if tbl.Cat(tbl.ColIndex(attr)).Value(r) != val {
				continue rows
			}
		}
		out = append(out, r)
	}
	return out
}

// tableRows extracts rows [lo, hi) of t in AppendBatch form.
func tableRows(t *dataset.Table, lo, hi int) [][]any {
	schema := t.Schema()
	out := make([][]any, 0, hi-lo)
	for r := lo; r < hi; r++ {
		row := make([]any, len(schema))
		for i := range schema {
			if c := t.Cat(i); c != nil {
				row[i] = c.Value(r)
			} else {
				row[i] = t.Num(i).Value(r)
			}
		}
		out = append(out, row)
	}
	return out
}

// warmTableIndex forces every column's posting sets, frequencies, and
// sorted orders, so a later append exercises the incremental extension
// path instead of a lazy cold build.
func warmTableIndex(tbl *dataset.Table) *dataset.Index {
	ix := tbl.Index()
	for i := range tbl.Schema() {
		if tbl.Cat(i) != nil {
			ix.CatPostings(i)
			ix.CatFreqs(i)
		} else {
			ix.NumCmpRangeLen(i, 0, true, true, false)
		}
	}
	return ix
}

// TestAppendBoundaryEquivalence grows a table across every awkward
// segment shape — the append landing one row before, exactly on, and one
// row past a 64K boundary — with the index warmed before the append so
// Table.Index extends sealed segments instead of rebuilding, and
// requires the extended table to be indistinguishable from a reference
// table built with all rows from the start: identical compiled-predicate
// row sets, facet digests (both the posting-bitmap session path and the
// row-scan path), and rendered plus structural CAD Views (each also
// checked against the row-scan chi-square scores and a pivot row loop).
func TestAppendBoundaryEquivalence(t *testing.T) {
	for _, shape := range appendBoundaryShapes {
		n0, n1 := shape[0], shape[1]
		t.Run(fmt.Sprintf("n=%d+%d", n0, n1-n0), func(t *testing.T) {
			ref := boundaryZipf(n1)
			grown := dataset.NewTable(ref.Name(), ref.Schema())
			if err := grown.AppendBatch(tableRows(ref, 0, n0)); err != nil {
				t.Fatal(err)
			}
			// Warm the base index (and remember the extension counters), so
			// the post-append Index call must go down the extend path.
			warmTableIndex(grown)
			catX0, ordX0 := dataset.IndexExtendStats()
			if err := grown.AppendBatch(tableRows(ref, n0, n1)); err != nil {
				t.Fatal(err)
			}
			ixG := warmTableIndex(grown)
			catX1, ordX1 := dataset.IndexExtendStats()
			if catX1 == catX0 && ordX1 == ordX0 {
				t.Fatal("append did not exercise the incremental index extension path")
			}
			if ixG.Rows() != n1 {
				t.Fatalf("extended index covers %d rows, want %d", ixG.Rows(), n1)
			}
			rows := dataset.AllRows(n1)

			// Compiled predicates over the extended index vs the reference.
			e := &expr.And{Kids: []expr.Expr{
				&expr.Cmp{Attr: "c0", Op: expr.Eq, Str: "v0000"},
				&expr.Cmp{Attr: "score", Op: expr.Le, Num: 500},
			}}
			gotC, err := expr.Compile(grown, e)
			if err != nil {
				t.Fatal(err)
			}
			gotRows, err := gotC.Select(rows)
			if err != nil {
				t.Fatal(err)
			}
			wantC, err := expr.Compile(ref, e)
			if err != nil {
				t.Fatal(err)
			}
			wantRows, err := wantC.Select(rows)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual([]int(gotRows), []int(wantRows)) {
				t.Fatalf("compiled Select over the extended index selects %d rows, reference %d", len(gotRows), len(wantRows))
			}

			// Facet digests: the posting-bitmap session path (which adopts
			// the extended index's posting sets) and the row-scan path must
			// both match the reference build.
			vG, err := dataview.New(grown, dataview.Options{})
			if err != nil {
				t.Fatal(err)
			}
			vR, err := dataview.New(ref, dataview.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sG := facet.NewSession(vG, rows)
			sR := facet.NewSession(vR, rows)
			if !reflect.DeepEqual(sG.Digest(), sR.Digest()) {
				t.Fatal("session digest over the grown table differs from the reference build")
			}
			if !reflect.DeepEqual(facet.Summarize(vG, rows, false), facet.Summarize(vR, rows, false)) {
				t.Fatal("scan digest over the grown table differs from the reference build")
			}

			// CAD Views: bit-identical structure and rendering.
			got := checkBoundaryCADView(t, vG, rows)
			want := checkBoundaryCADView(t, vR, rows)
			if core.Render(got, nil) != core.Render(want, nil) {
				t.Error("rendered CAD View over the grown table differs from the reference")
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("CAD View structure over the grown table differs from the reference")
			}
		})
	}
}

func TestSegmentBoundaryEquivalence(t *testing.T) {
	for _, n := range boundaryRowCounts {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			tbl := boundaryZipf(n)
			rows := dataset.AllRows(n)

			// Compiled predicates against the cold table: the planner
			// must build whatever postings it wants and still match the
			// row-at-a-time interpreter, and a recompile against the
			// warmed index must keep the same plan and row set.
			e := &expr.And{Kids: []expr.Expr{
				&expr.Cmp{Attr: "c0", Op: expr.Eq, Str: "v0000"},
				&expr.Cmp{Attr: "score", Op: expr.Le, Num: 500},
			}}
			cold, err := expr.Compile(tbl, e)
			if err != nil {
				t.Fatal(err)
			}
			coldPlan := cold.Explain()
			coldRows, err := cold.Select(rows)
			if err != nil {
				t.Fatal(err)
			}
			wantRows, err := interpretRows(tbl, rows, e)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual([]int(coldRows), []int(wantRows)) {
				t.Fatalf("compiled Select disagrees with interpreter: %d vs %d rows", len(coldRows), len(wantRows))
			}
			warm, err := expr.Compile(tbl, e)
			if err != nil {
				t.Fatal(err)
			}
			if plan := warm.Explain(); plan != coldPlan {
				t.Fatalf("plan changed after index warm-up:\ncold: %s\nwarm: %s", coldPlan, plan)
			}
			warmRows, err := warm.Select(rows)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual([]int(warmRows), []int(coldRows)) {
				t.Fatal("warm Select disagrees with cold Select")
			}

			// Facet digests and panels vs a loop over table cells: the
			// whole table, and a session filtered to the c0 and c1 values
			// of the first row of the last segment, so its sparse result
			// holds that segment-edge row. Each panel attribute counts
			// under the other attribute's filter.
			v, err := dataview.New(tbl, dataview.Options{})
			if err != nil {
				t.Fatal(err)
			}
			digest := facet.Summarize(v, rows, false)
			if len(digest.Attrs) != 3 {
				t.Fatalf("digest has %d attributes, want 3", len(digest.Attrs))
			}
			for _, sum := range digest.Attrs {
				checkCellSummary(t, v, sum, rows, "whole-table digest")
			}
			edge := (n - 1) &^ dataset.SegmentMask
			eq := map[string]string{}
			sess := facet.NewSession(v, rows)
			for _, attr := range []string{"c0", "c1"} {
				eq[attr] = tbl.Cat(tbl.ColIndex(attr)).Value(edge)
				if err := sess.Select(attr, eq[attr]); err != nil {
					t.Fatal(err)
				}
			}
			filtered := cellRows(tbl, eq)
			for _, sum := range sess.Digest().Attrs {
				checkCellSummary(t, v, sum, filtered, "filtered digest")
			}
			for _, sum := range sess.PanelDigest().Attrs {
				others := map[string]string{}
				for attr, val := range eq {
					if attr != sum.Attr {
						others[attr] = val
					}
				}
				checkCellSummary(t, v, sum, cellRows(tbl, others), "panel")
			}

			// CAD Views on every boundary shape: bitmap chi-square scores
			// == row-scan scores, pivot rows == a row loop.
			checkBoundaryCADView(t, v, rows)
		})
	}
}
