package dataset

// Append-path tests: validate-before-mutate on the row/batch append
// APIs, incremental index extension vs cold rebuild at segment-boundary
// shapes, sealed-segment reuse, and the exported ExtendPostings helper.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestAppendRowLeavesTableUnmodifiedOnError pins the validate-first
// contract: a type error anywhere in the row must leave every column,
// the row count, and the epoch exactly as they were — no column may end
// up one cell longer than its siblings.
func TestAppendRowLeavesTableUnmodifiedOnError(t *testing.T) {
	tbl := NewTable("partial", Schema{
		{Name: "cat", Kind: Categorical, Queriable: true},
		{Name: "num", Kind: Numeric, Queriable: true},
		{Name: "cat2", Kind: Categorical, Queriable: true},
	})
	tbl.MustAppendRow("a", 1.0, "x")
	epoch := tbl.Epoch()
	dictLen := tbl.Cat(0).Cardinality()

	bad := [][]any{
		{"b", 2.0},               // wrong arity
		{"b", 2.0, "y", "extra"}, // wrong arity
		{"b", "nope", "y"},       // numeric cell gets a string
		{3, 2.0, "y"},            // categorical cell gets an int
		{"b", 2.0, 4.0},          // trailing categorical cell gets a float
	}
	for _, row := range bad {
		if err := tbl.AppendRow(row...); err == nil {
			t.Fatalf("AppendRow(%v): want error", row)
		}
		if n := tbl.NumRows(); n != 1 {
			t.Fatalf("AppendRow(%v): NumRows = %d after failed append, want 1", row, n)
		}
		if got := tbl.Epoch(); got != epoch {
			t.Fatalf("AppendRow(%v): epoch moved %d -> %d on failed append", row, epoch, got)
		}
		for col := 0; col < tbl.NumCols(); col++ {
			if c := tbl.Cat(col); c != nil {
				if len(c.SegCodes(0)) != 1 {
					t.Fatalf("AppendRow(%v): column %d grew on failed append", row, col)
				}
			} else if len(tbl.Num(col).SegValues(0)) != 1 {
				t.Fatalf("AppendRow(%v): column %d grew on failed append", row, col)
			}
		}
	}
	// The earliest bad row interned no dictionary entry either: a failed
	// append must not leak "b" into the categorical dictionary.
	if got := tbl.Cat(0).Cardinality(); got != dictLen {
		t.Fatalf("failed appends grew the dictionary: %d -> %d", dictLen, got)
	}
	// And the table still works.
	tbl.MustAppendRow("b", 2.0, "y")
	if tbl.NumRows() != 2 || tbl.Cat(0).Value(1) != "b" || tbl.Num(1).Value(1) != 2.0 {
		t.Fatalf("table unusable after failed appends")
	}
}

// TestAppendBatchValidatesWholeBatch checks batch appends are
// all-or-nothing: one bad row anywhere rejects the batch with the table
// unmodified, and the error names the offending row.
func TestAppendBatchValidatesWholeBatch(t *testing.T) {
	tbl := NewTable("batch", Schema{
		{Name: "cat", Kind: Categorical, Queriable: true},
		{Name: "num", Kind: Numeric, Queriable: true},
	})
	tbl.MustAppendRow("a", 1.0)
	epoch := tbl.Epoch()

	err := tbl.AppendBatch([][]any{
		{"b", 2.0},
		{"c", 3},
		{"d", "broken"},
		{"e", 5.0},
	})
	if err == nil {
		t.Fatal("AppendBatch with a bad row: want error")
	}
	if !strings.Contains(err.Error(), "row 2") {
		t.Fatalf("AppendBatch error %q does not name row 2", err)
	}
	if tbl.NumRows() != 1 || tbl.Epoch() != epoch {
		t.Fatalf("failed batch mutated the table: rows=%d epoch=%d", tbl.NumRows(), tbl.Epoch())
	}

	if err := tbl.AppendBatch([][]any{{"b", 2.0}, {"c", 3}}); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if tbl.NumRows() != 3 || tbl.Num(1).Value(2) != 3.0 || tbl.Cat(0).Value(2) != "c" {
		t.Fatal("batch rows not appended in order")
	}
	if tbl.Epoch() != epoch+1 {
		t.Fatalf("batch bumped epoch by %d, want 1", tbl.Epoch()-epoch)
	}
}

// TestAppendRowRejectsInfinity pins that ±Inf is no numeric value: the
// append fails naming the column, and the table is untouched. NaN still
// lands as the missing value.
func TestAppendRowRejectsInfinity(t *testing.T) {
	tbl := NewTable("inf", Schema{
		{Name: "cat", Kind: Categorical, Queriable: true},
		{Name: "num", Kind: Numeric, Queriable: true},
	})
	tbl.MustAppendRow("a", 1.0)
	epoch := tbl.Epoch()
	for _, x := range []float64{math.Inf(1), math.Inf(-1)} {
		err := tbl.AppendRow("b", x)
		if err == nil || !strings.Contains(err.Error(), `"num"`) {
			t.Fatalf("AppendRow(%v): err = %v, want one naming column \"num\"", x, err)
		}
		if tbl.NumRows() != 1 || tbl.Epoch() != epoch {
			t.Fatalf("AppendRow(%v) mutated the table: rows=%d epoch=%d", x, tbl.NumRows(), tbl.Epoch())
		}
	}
	if err := tbl.AppendRow("b", math.NaN()); err != nil {
		t.Fatalf("AppendRow(NaN): %v", err)
	}
}

// TestAppendBatchRejectsInfinity: one infinite cell rejects the whole
// batch, naming its row and column.
func TestAppendBatchRejectsInfinity(t *testing.T) {
	tbl := NewTable("inf", Schema{
		{Name: "cat", Kind: Categorical, Queriable: true},
		{Name: "num", Kind: Numeric, Queriable: true},
	})
	tbl.MustAppendRow("a", 1.0)
	epoch := tbl.Epoch()
	err := tbl.AppendBatch([][]any{{"b", 2.0}, {"c", math.NaN()}, {"d", math.Inf(-1)}})
	if err == nil || !strings.Contains(err.Error(), "row 2") || !strings.Contains(err.Error(), `"num"`) {
		t.Fatalf("AppendBatch: err = %v, want one naming row 2 and column \"num\"", err)
	}
	if tbl.NumRows() != 1 || tbl.Epoch() != epoch {
		t.Fatalf("failed batch mutated the table: rows=%d epoch=%d", tbl.NumRows(), tbl.Epoch())
	}
}

// boundaryAppendRows generates deterministic rows with the prefix
// property (rows[:k] identical for every total), in the same shapes as
// boundaryTable: a skewed categorical, a run-structured categorical,
// and a numeric mixing NaN, near-duplicate mantissa ties, and
// half-step duplicates.
func boundaryAppendRows(total int) [][]any {
	labels := make([]string, 120)
	for i := range labels {
		labels[i] = fmt.Sprintf("t%03d", i)
	}
	runs := []string{"r0", "r1", "r2", "r3", "r4"}
	rng := rand.New(rand.NewSource(42))
	rows := make([][]any, total)
	for i := range rows {
		cat := "head"
		if i%3 != 0 {
			cat = labels[rng.Intn(len(labels))]
		}
		var num float64
		switch {
		case i%97 == 0:
			num = math.NaN()
		case i%13 == 0:
			num = 100 + float64(i%7)*1e-11
		default:
			num = math.Floor(rng.Float64()*2000) / 2
		}
		rows[i] = []any{cat, runs[(i/8192)%len(runs)], num}
	}
	return rows
}

func boundaryAppendTable(t *testing.T, rows [][]any) *Table {
	t.Helper()
	tbl := NewTable("boundary-append", Schema{
		{Name: "cat", Kind: Categorical, Queriable: true},
		{Name: "run", Kind: Categorical, Queriable: true},
		{Name: "num", Kind: Numeric, Queriable: true},
	})
	if err := tbl.AppendBatch(rows); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	return tbl
}

// warmIndex forces every lazy structure so a later append extends them
// all instead of rebuilding lazily from scratch.
func warmIndex(ix *Index, tbl *Table) {
	for col := range tbl.Schema() {
		if tbl.Cat(col) != nil {
			ix.CatPostings(col)
			ix.CatFreqs(col)
		} else {
			ix.NumCmpRangeLen(col, 500, true, true, false)
		}
	}
}

// TestAppendBoundaryShapes drives appends that land one row before,
// exactly on, and one row past 64K segment boundaries — including
// appends that seal one segment and open the next — and checks the
// incrementally-extended index is bit-identical to a cold rebuild over
// the same rows: postings (container representation included), code
// frequencies, sorted orders, and the derived range/edge-count queries.
func TestAppendBoundaryShapes(t *testing.T) {
	shapes := []struct{ n0, n1 int }{
		{SegmentSize - 100, SegmentSize - 1}, // stays one short of the boundary
		{SegmentSize - 100, SegmentSize},     // lands exactly on it
		{SegmentSize - 100, SegmentSize + 1}, // crosses it by one row
		{SegmentSize - 1, SegmentSize + 1},   // one-short start, crossing append
		{SegmentSize, SegmentSize + 1},       // sealed start, one-row tail
		{SegmentSize, 2 * SegmentSize},       // sealed start, fills segment 1 exactly
		{SegmentSize + 1, 2*SegmentSize + 1}, // dirty tail start, crossing append
	}
	maxN := 2*SegmentSize + 1
	rows := boundaryAppendRows(maxN)
	numCol := 2

	for _, sh := range shapes {
		sh := sh
		t.Run(fmt.Sprintf("%d+%d", sh.n0, sh.n1-sh.n0), func(t *testing.T) {
			inc := boundaryAppendTable(t, rows[:sh.n0])
			warmIndex(inc.Index(), inc)
			if err := inc.AppendBatch(rows[sh.n0:sh.n1]); err != nil {
				t.Fatalf("AppendBatch: %v", err)
			}
			ix := inc.Index()
			if ix.Rows() != sh.n1 || ix.epoch != inc.Epoch() {
				t.Fatalf("extended index covers (rows=%d, epoch=%d), table at (%d, %d)",
					ix.Rows(), ix.epoch, sh.n1, inc.Epoch())
			}

			cold := boundaryAppendTable(t, rows[:sh.n1])
			ixC := cold.Index()

			for _, col := range []int{0, 1} {
				ps, psC := ix.CatPostings(col), ixC.CatPostings(col)
				if len(ps) != len(psC) {
					t.Fatalf("col %d: %d postings incremental vs %d cold", col, len(ps), len(psC))
				}
				for code := range ps {
					if !reflect.DeepEqual(ps[code], psC[code]) {
						t.Fatalf("col %d code %d: extended posting differs from cold rebuild", col, code)
					}
				}
				if !reflect.DeepEqual(ix.CatFreqs(col), ixC.CatFreqs(col)) {
					t.Fatalf("col %d: extended freqs differ from cold rebuild", col)
				}
			}

			// Force both sorted orders, then compare the raw per-segment
			// orders and the queries derived from them.
			ix.NumCmpRangeLen(numCol, 500, true, true, false)
			ixC.NumCmpRangeLen(numCol, 500, true, true, false)
			if !reflect.DeepEqual(ix.ord[numCol], ixC.ord[numCol]) {
				t.Fatal("extended sorted order differs from cold rebuild")
			}
			if ix.valid[numCol] != ixC.valid[numCol] {
				t.Fatalf("valid counts differ: %d vs %d", ix.valid[numCol], ixC.valid[numCol])
			}
			for _, r := range [][2]float64{{0, 1000}, {100, 100}, {250.5, 750}, {999.5, 2000}} {
				got, want := ix.NumRange(numCol, r[0], r[1]), ixC.NumRange(numCol, r[0], r[1])
				if !reflect.DeepEqual(rowsOf(got), rowsOf(want)) {
					t.Fatalf("NumRange[%g, %g]: extended differs from cold", r[0], r[1])
				}
			}
			edges := []float64{50, 100, 250.5, 500, 900}
			full := FromRowSet(sh.n1, AllRows(sh.n1))
			lt, le, valid := ix.NumEdgeCounts(numCol, edges, full)
			ltC, leC, validC := ixC.NumEdgeCounts(numCol, edges, full)
			if !reflect.DeepEqual(lt, ltC) || !reflect.DeepEqual(le, leC) || valid != validC {
				t.Fatal("NumEdgeCounts: extended differs from cold")
			}
		})
	}
}

// samePayload reports whether two containers share their payload
// storage (the sealed-segment reuse contract: no copy, same backing
// array).
func samePayload(a, b *container) bool {
	if a.kind != b.kind || a.card != b.card {
		return false
	}
	switch {
	case len(a.array) > 0:
		return len(b.array) > 0 && &a.array[0] == &b.array[0]
	case len(a.words) > 0:
		return len(b.words) > 0 && &a.words[0] == &b.words[0]
	case len(a.runs) > 0:
		return len(b.runs) > 0 && &a.runs[0] == &b.runs[0]
	}
	return b.card == 0 // both empty
}

// TestAppendReusesSealedSegments pins the incremental cost model: an
// append past a sealed 64K segment must reuse that segment's posting
// containers and sorted order verbatim — shared storage, not a
// re-scatter — and only rebuild the dirty tail.
func TestAppendReusesSealedSegments(t *testing.T) {
	rows := boundaryAppendRows(SegmentSize + 500)
	tbl := boundaryAppendTable(t, rows[:SegmentSize+100])
	ix0 := tbl.Index()
	warmIndex(ix0, tbl)
	ps0 := ix0.CatPostings(0)
	ord0 := ix0.ord[2]

	catX0, ordX0 := IndexExtendStats()
	if err := tbl.AppendBatch(rows[SegmentSize+100:]); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	ix1 := tbl.Index()
	catX1, ordX1 := IndexExtendStats()
	if catX1 <= catX0 || ordX1 <= ordX0 {
		t.Fatalf("append did not extend: cat %d->%d, ord %d->%d", catX0, catX1, ordX0, ordX1)
	}

	ps1 := ix1.CatPostings(0)
	shared := 0
	for code := range ps0 {
		if len(ps0[code].cs) == 0 || ps0[code].cs[0].card == 0 {
			continue
		}
		if !samePayload(&ps0[code].cs[0], &ps1[code].cs[0]) {
			t.Fatalf("code %d: sealed segment 0 container was rebuilt, not reused", code)
		}
		shared++
	}
	if shared == 0 {
		t.Fatal("no sealed containers compared")
	}
	ord1 := ix1.ord[2]
	if &ord0[0].rows[0] != &ord1[0].rows[0] {
		t.Fatal("sealed segment 0 sorted order was rebuilt, not reused")
	}
	if &ord0[1].rows[0] == &ord1[1].rows[0] {
		t.Fatal("dirty tail segment order was reused; it must re-sort")
	}
}

// TestExtendPostings exercises the incremental posting helper directly
// against a from-scratch build.
func TestExtendPostings(t *testing.T) {
	const card = 5
	mkCodes := func(n int) [][]int32 {
		rng := rand.New(rand.NewSource(7))
		var segs [][]int32
		for i := 0; i < n; i++ {
			if i&SegmentMask == 0 {
				segs = append(segs, nil)
			}
			s := len(segs) - 1
			segs[s] = append(segs[s], int32(rng.Intn(card)))
		}
		return segs
	}
	oldN, n := SegmentSize+37, 2*SegmentSize+11
	segs := mkCodes(n)
	codesAt := func(s int) []int32 { return segCodes(segs, s, n) }

	old := extendPostings(nil, oldN, card, 0, func(s int) []int32 { return segCodes(segs, s, oldN) })
	got := extendPostings(old, n, card, oldN>>SegmentBits, codesAt)
	want := extendPostings(nil, n, card, 0, codesAt)
	for code := range want {
		if !reflect.DeepEqual(rowsOf(got[code]), rowsOf(want[code])) {
			t.Fatalf("code %d: extended postings differ from scratch build", code)
		}
	}
	// Growing card (new dictionary entries in the tail) yields empty
	// postings for unseen codes.
	grown := extendPostings(old, n, card+2, oldN>>SegmentBits, codesAt)
	if len(grown) != card+2 || grown[card+1].Len() != 0 {
		t.Fatalf("grown-card extend: %d postings, tail len %d", len(grown), grown[card+1].Len())
	}
}
