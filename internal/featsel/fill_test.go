package featsel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/stats"
)

// labels returns n value labels prefix0 … prefix(n-1).
func labels(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// randomView builds an n-row table with random shape for the property
// tests: a categorical class attribute, a handful of categorical
// candidates of cardinality 2–41, and two numeric attributes, Num and
// Temp, whose cells are NaN about one time in twenty. Temp is also the
// class attribute of the NaN-class checks. It returns the view and the
// candidates for class Class.
func randomView(t *testing.T, rng *rand.Rand, n int) (*dataview.View, []string) {
	t.Helper()
	nCats := 2 + rng.Intn(3)
	schema := dataset.Schema{{Name: "Class", Kind: dataset.Categorical, Queriable: true}}
	vals := [][]string{labels("k", 2+rng.Intn(5))}
	candidates := make([]string, 0, nCats+2)
	for j := 0; j < nCats; j++ {
		name := fmt.Sprintf("C%d", j)
		schema = append(schema, dataset.Attribute{Name: name, Kind: dataset.Categorical, Queriable: true})
		vals = append(vals, labels("v", 2+rng.Intn(40)))
		candidates = append(candidates, name)
	}
	schema = append(schema,
		dataset.Attribute{Name: "Num", Kind: dataset.Numeric, Queriable: true},
		dataset.Attribute{Name: "Temp", Kind: dataset.Numeric, Queriable: true})
	candidates = append(candidates, "Num", "Temp")
	num := func() float64 {
		if rng.Intn(20) == 0 {
			return math.NaN()
		}
		return rng.NormFloat64() * 25
	}
	tbl := dataset.NewTable("prop", schema)
	for i := 0; i < n; i++ {
		row := make([]any, 0, len(schema))
		for _, vs := range vals {
			row = append(row, vs[rng.Intn(len(vs))])
		}
		tbl.MustAppendRow(append(row, num(), num())...)
	}
	v, err := dataview.New(tbl, dataview.Options{Bins: 2 + rng.Intn(5)})
	if err != nil {
		t.Fatal(err)
	}
	return v, candidates
}

// randomSubset draws the rows of an n-row table at a random density, in
// ascending order or rotated by a random offset, as a sampled result
// (core.sampleRowsBitmap) arrives.
func randomSubset(rng *rand.Rand, n int) dataset.RowSet {
	density := 0.05 + rng.Float64()*0.9
	var rows dataset.RowSet
	for r := 0; r < n; r++ {
		if rng.Float64() < density {
			rows = append(rows, r)
		}
	}
	if len(rows) > 0 && rng.Intn(2) == 0 {
		k := rng.Intn(len(rows))
		rows = append(rows[k:len(rows):len(rows)], rows[:k]...)
	}
	return rows
}

// thinClasses is the class cardinality of thinClassView.
const thinClasses = 200

// thinClassView builds the shape where a result holds few of many
// classes: a class attribute of thinClasses values over 65,538–131,072
// rows, so the table ends in a partial second segment, and a result that
// keeps only the rows of two to six classes: code 0, the last code and
// up to four others. Codes follow first appearance. Codes 0–197 appear
// in the first rows, and the last two codes first appear in the last
// segment, so all their rows lie there. The result holds under 4,096
// rows per 64K chunk, so as a bitmap every chunk of it is an array
// container.
func thinClassView(t *testing.T, rng *rand.Rand) (*dataview.View, []string, dataset.RowSet) {
	t.Helper()
	n := dataset.SegmentSize + 2 + rng.Intn(dataset.SegmentSize-1)
	tbl := dataset.NewTable("thin", dataset.Schema{
		{Name: "Class", Kind: dataset.Categorical, Queriable: true},
		{Name: "C0", Kind: dataset.Categorical, Queriable: true},
		{Name: "C1", Kind: dataset.Categorical, Queriable: true},
		{Name: "Num", Kind: dataset.Numeric, Queriable: true},
	})
	classes, c0, c1 := labels("k", thinClasses), labels("a", 8), labels("b", 40)
	cls := make([]int, n)
	for r := range cls {
		switch late := thinClasses - 2; {
		case r < late:
			cls[r] = r
		case r == dataset.SegmentSize || r == dataset.SegmentSize+1:
			cls[r] = late + r - dataset.SegmentSize
		case r > dataset.SegmentSize && rng.Intn(50) == 0:
			cls[r] = late + rng.Intn(2)
		default:
			cls[r] = rng.Intn(late)
		}
		// C0 leans on the class, so the chi-square statistics differ.
		tbl.MustAppendRow(classes[cls[r]], c0[rng.Intn(3+cls[r]%6)], c1[rng.Intn(len(c1))], rng.NormFloat64()*25)
	}
	v, err := dataview.New(tbl, dataview.Options{Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	keep := map[int]bool{0: true, thinClasses - 1: true}
	for want := 2 + rng.Intn(5); len(keep) < want; {
		keep[rng.Intn(thinClasses)] = true
	}
	var rows dataset.RowSet
	perChunk := map[int]int{}
	for r, c := range cls {
		if keep[c] {
			rows = append(rows, r)
			perChunk[r>>dataset.SegmentBits]++
		}
	}
	for chunk, k := range perChunk {
		if k > 4096 {
			t.Fatalf("chunk %d holds %d result rows, too many for an array container", chunk, k)
		}
	}
	return v, []string{"C0", "C1", "Num"}, rows
}

// rowLoopInput is one ranking input of the row-loop reference checks.
type rowLoopInput struct {
	tag        string
	v          *dataview.View
	class      string
	candidates []string
	rows       dataset.RowSet
}

// rowLoopInputs returns the inputs both reference checks run on: random
// tables and subsets, each ranked against the categorical Class and
// against Temp, whose NaN cells make rows classless; results holding few
// of many classes (thinClassView); and tables of 64K−1, 64K and 64K+1
// rows, whole and subset, so a sweep crosses or ends on the segment edge.
func rowLoopInputs(t *testing.T) []rowLoopInput {
	t.Helper()
	var ins []rowLoopInput
	byTemp := func(candidates []string) []string {
		out := []string{"Class"}
		for _, c := range candidates {
			if c != "Temp" {
				out = append(out, c)
			}
		}
		return out
	}
	add := func(tag string, v *dataview.View, candidates []string, rows dataset.RowSet) {
		ins = append(ins,
			rowLoopInput{tag + " class Class", v, "Class", candidates, rows},
			rowLoopInput{tag + " class Temp", v, "Temp", byTemp(candidates), rows})
	}
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		v, candidates := randomView(t, rng, 50+rng.Intn(750))
		if rows := randomSubset(rng, v.Rows()); len(rows) > 0 {
			add(fmt.Sprintf("trial %d", trial), v, candidates, rows)
		}
	}
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*6271 + 3))
		v, candidates, rows := thinClassView(t, rng)
		ins = append(ins, rowLoopInput{fmt.Sprintf("thin trial %d", trial), v, "Class", candidates, rows})
	}
	for _, n := range []int{dataset.SegmentSize - 1, dataset.SegmentSize, dataset.SegmentSize + 1} {
		rng := rand.New(rand.NewSource(int64(n)))
		v, candidates := randomView(t, rng, n)
		add(fmt.Sprintf("n=%d all", n), v, candidates, dataset.AllRows(n))
		add(fmt.Sprintf("n=%d subset", n), v, candidates, randomSubset(rng, n))
		// Rows in no order cross segment edges both ways.
		shuffled := randomSubset(rng, n)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		add(fmt.Sprintf("n=%d shuffled", n), v, candidates, shuffled)
	}
	return ins
}

// rowLoopTables is the reference the contingency fill is held to, sharing
// no code with it: for each candidate, a plain loop over the rows reads
// the class and candidate view codes through Column.Code and counts the
// pair; classes are numbered in order of first occurrence in rows, and
// rows with a NaN class or candidate cell count nowhere.
func rowLoopTables(t *testing.T, v *dataview.View, class string, candidates []string, rows dataset.RowSet) []*stats.ContingencyTable {
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
	tables := make([]*stats.ContingencyTable, len(candidates))
	for j, name := range candidates {
		col, err := v.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		tables[j] = stats.NewContingencyTable(col.Cardinality(), len(classOf))
		for _, r := range rows {
			if c, x := cc.Code(r), col.Code(r); c >= 0 && x >= 0 {
				tables[j].Counts[x][classOf[c]]++
			}
		}
	}
	return tables
}

// rowLoopChiSquare ranks candidates from rowLoopTables: stats.ChiSquare
// of each table, statistic descending, then name ascending.
func rowLoopChiSquare(t *testing.T, v *dataview.View, class string, candidates []string, rows dataset.RowSet) []Score {
	t.Helper()
	out := make([]Score, len(candidates))
	for j, table := range rowLoopTables(t, v, class, candidates, rows) {
		res, err := stats.ChiSquare(table)
		if err != nil {
			t.Fatal(err)
		}
		out[j] = Score{Attr: candidates[j], Stat: res.Stat, PValue: res.PValue}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Stat != out[j].Stat {
			return out[i].Stat > out[j].Stat
		}
		return out[i].Attr < out[j].Attr
	})
	return out
}

// TestFillTablesMatchesRowLoop holds the contingency fill to the row-loop
// reference cell for cell, in shape and in every count, over every
// rowLoopInputs input.
func TestFillTablesMatchesRowLoop(t *testing.T) {
	for _, in := range rowLoopInputs(t) {
		class, cols, err := resolveCandidates(in.v, in.class, in.candidates)
		if err != nil {
			t.Fatal(err)
		}
		remap, nClasses := classOrder(class, in.rows)
		got, err := fillTablesScan(context.Background(), class, cols, in.rows, remap, nClasses)
		if err != nil {
			t.Fatalf("%s: %v", in.tag, err)
		}
		for j, want := range rowLoopTables(t, in.v, in.class, in.candidates, in.rows) {
			if len(got[j].Counts) != len(want.Counts) {
				t.Fatalf("%s: table of %s has %d rows, row loop %d", in.tag, in.candidates[j], len(got[j].Counts), len(want.Counts))
			}
			for x := range want.Counts {
				if len(got[j].Counts[x]) != len(want.Counts[x]) {
					t.Fatalf("%s: table of %s has %d classes, row loop %d", in.tag, in.candidates[j], len(got[j].Counts[x]), len(want.Counts[x]))
				}
				for y, n := range want.Counts[x] {
					if got[j].Counts[x][y] != n {
						t.Fatalf("%s: cell (%d, %d) of %s = %d, row loop %d", in.tag, x, y, in.candidates[j], got[j].Counts[x][y], n)
					}
				}
			}
		}
	}
}

// TestRankersMatchRowLoop checks the exported ranker end to end against
// the row-loop reference over every rowLoopInputs input: identical Score
// slices, attribute order, statistic and p-value bit for bit.
func TestRankersMatchRowLoop(t *testing.T) {
	for _, in := range rowLoopInputs(t) {
		got, err := ChiSquareContext(context.Background(), in.v, in.rows, in.class, in.candidates)
		if err != nil {
			t.Fatalf("%s: %v", in.tag, err)
		}
		want := rowLoopChiSquare(t, in.v, in.class, in.candidates, in.rows)
		if len(got) != len(want) {
			t.Fatalf("%s: %d scores, row loop %d", in.tag, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: chi score %d = %+v, row loop %+v", in.tag, i, got[i], want[i])
			}
		}
	}
}

// TestRankersHonorCanceledContext pins the contingency fill's
// cancellation checkpoint: a ranker handed a canceled context returns
// the context's error, not scores.
func TestRankersHonorCanceledContext(t *testing.T) {
	v, rows := syntheticView(t, 200, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	type ranker func(context.Context, *dataview.View, dataset.RowSet, string, []string) ([]Score, error)
	for name, rank := range map[string]ranker{
		"ChiSquare":         ChiSquareContext,
		"MutualInformation": MutualInformationContext,
	} {
		if _, err := rank(ctx, v, rows, "Class", allCandidates); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestFillPanicsOnRowPastView checks that a row past the view's snapshot
// makes the sweep panic, as an indexed read would, rather than spin:
// classOrder stops reading rows once every class is numbered, so a
// trailing row past the view reaches the sweep unread, and in the last
// segment it lies inside the segment but beyond its code slice.
func TestFillPanicsOnRowPastView(t *testing.T) {
	v, rows := syntheticView(t, 200, 8)
	rows = append(rows[:len(rows):len(rows)], v.Rows())
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		ChiSquare(v, rows, "Class", allCandidates)
	}()
	select {
	case p := <-done:
		if p == nil {
			t.Fatal("a row past the view did not panic")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the sweep spun on a row past the view")
	}
}
