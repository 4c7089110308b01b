package featsel

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/stats"
)

// randomView builds a table with random shape for the property tests:
// a class attribute plus a handful of categorical candidates of varying
// cardinality and one numeric candidate, all filled with random values.
func randomView(t *testing.T, rng *rand.Rand) (*dataview.View, int, []string) {
	t.Helper()
	n := 50 + rng.Intn(750)
	nCats := 2 + rng.Intn(3)
	schema := dataset.Schema{{Name: "Class", Kind: dataset.Categorical, Queriable: true}}
	cards := make([]int, nCats)
	candidates := make([]string, 0, nCats+1)
	for j := 0; j < nCats; j++ {
		name := fmt.Sprintf("C%d", j)
		schema = append(schema, dataset.Attribute{Name: name, Kind: dataset.Categorical, Queriable: true})
		cards[j] = 2 + rng.Intn(40) // spans both sides of the cost dispatch
		candidates = append(candidates, name)
	}
	schema = append(schema, dataset.Attribute{Name: "Num", Kind: dataset.Numeric, Queriable: true})
	candidates = append(candidates, "Num")
	tbl := dataset.NewTable("prop", schema)
	nClasses := 2 + rng.Intn(5)
	for i := 0; i < n; i++ {
		row := make([]any, 0, len(schema))
		row = append(row, fmt.Sprintf("k%d", rng.Intn(nClasses)))
		for j := 0; j < nCats; j++ {
			row = append(row, fmt.Sprintf("v%d", rng.Intn(cards[j])))
		}
		row = append(row, rng.NormFloat64()*25)
		tbl.MustAppendRow(row...)
	}
	v, err := dataview.New(tbl, dataview.Options{Bins: 2 + rng.Intn(5)})
	if err != nil {
		t.Fatal(err)
	}
	return v, n, candidates
}

// randomSubset draws a random row subset at a random density, as both a
// row set and the equivalent bitmap.
func randomSubset(rng *rand.Rand, n int) (dataset.RowSet, *dataset.Bitmap) {
	density := 0.05 + rng.Float64()*0.9
	bm := dataset.NewBitmap(n)
	var rows dataset.RowSet
	for r := 0; r < n; r++ {
		if rng.Float64() < density {
			bm.Add(r)
			rows = append(rows, r)
		}
	}
	return rows, bm
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
// rows per 64K chunk, so every chunk of it is an array container.
func thinClassView(t *testing.T, rng *rand.Rand) (*dataview.View, []string, dataset.RowSet, *dataset.Bitmap) {
	t.Helper()
	n := dataset.SegmentSize + 2 + rng.Intn(dataset.SegmentSize-1)
	tbl := dataset.NewTable("thin", dataset.Schema{
		{Name: "Class", Kind: dataset.Categorical, Queriable: true},
		{Name: "C0", Kind: dataset.Categorical, Queriable: true},
		{Name: "C1", Kind: dataset.Categorical, Queriable: true},
		{Name: "Num", Kind: dataset.Numeric, Queriable: true},
	})
	labels := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
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
	bm := dataset.NewBitmap(n)
	var rows dataset.RowSet
	perChunk := map[int]int{}
	for r, c := range cls {
		if keep[c] {
			bm.Add(r)
			rows = append(rows, r)
			perChunk[r>>dataset.SegmentBits]++
		}
	}
	for chunk, k := range perChunk {
		if k > 4096 {
			t.Fatalf("chunk %d holds %d result rows, too many for an array container", chunk, k)
		}
	}
	return v, []string{"C0", "C1", "Num"}, rows, bm
}

// sameTable reports whether two contingency tables agree in shape and
// in every cell.
func sameTable(a, b *stats.ContingencyTable) bool {
	if len(a.Counts) != len(b.Counts) {
		return false
	}
	for x := range a.Counts {
		if len(a.Counts[x]) != len(b.Counts[x]) {
			return false
		}
		for y := range a.Counts[x] {
			if a.Counts[x][y] != b.Counts[x][y] {
				return false
			}
		}
	}
	return true
}

// TestFillTablesBitmapMatchesScan is the white-box property test the
// bitmap contingency path is held to: over random tables and random
// filters, the cost-dispatched fill and, for every candidate, the
// posting-sweep branch on its own must reproduce the row-scan fill cell
// for cell. The random shapes put candidates on both sides of the
// scanCostRatio split; the test checks that the dispatch really chose
// each side somewhere. The thinClassView results hold few of many
// classes, so most class postings miss them.
func TestFillTablesBitmapMatchesScan(t *testing.T) {
	ctx := context.Background()
	chosen := map[bool]int{}
	check := func(tag string, v *dataview.View, candidates []string, rows dataset.RowSet, bm *dataset.Bitmap) {
		t.Helper()
		cols, err := resolveCandidates(v, "Class", candidates)
		if err != nil {
			t.Fatal(err)
		}
		cls, nClasses, err := classCodes(v, rows, "Class")
		if err != nil {
			t.Fatal(err)
		}
		want, err := fillTablesScan(ctx, cols, rows, cls, nClasses)
		if err != nil {
			t.Fatal(err)
		}
		words := (bm.Universe() + 63) / 64
		for _, col := range cols {
			chosen[fillByBitmap(col, nClasses, words, bm.Len())]++
		}
		got, err := fillTablesBitmap(ctx, v, cols, bm, "Class")
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		clsBmps, _, err := classBitmaps(v, bm, "Class")
		if err != nil {
			t.Fatal(err)
		}
		for j, col := range cols {
			if !sameTable(got[j], want[j]) {
				t.Fatalf("%s: dispatched table of %s diverged from the row scan", tag, candidates[j])
			}
			if !sameTable(postingTable(col, clsBmps, bm), want[j]) {
				t.Fatalf("%s: posting-sweep table of %s diverged from the row scan", tag, candidates[j])
			}
		}
	}
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*6271 + 3))
		v, candidates, rows, bm := thinClassView(t, rng)
		check(fmt.Sprintf("thin trial %d", trial), v, candidates, rows, bm)
	}
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		v, n, candidates := randomView(t, rng)
		rows, bm := randomSubset(rng, n)
		if len(rows) == 0 {
			continue
		}
		check(fmt.Sprintf("trial %d", trial), v, candidates, rows, bm)
	}
	if chosen[true] == 0 || chosen[false] == 0 {
		t.Fatalf("dispatch never chose one side: %d bitmap, %d scan candidates", chosen[true], chosen[false])
	}
}

// TestBitmapRankersMatchScan checks the exported bitmap entry point end
// to end: identical Score slices — attribute order, statistic, and
// p-value — to the scan-path ranker over random inputs and over results
// that hold few of many classes.
func TestBitmapRankersMatchScan(t *testing.T) {
	ctx := context.Background()
	check := func(tag string, v *dataview.View, candidates []string, rows dataset.RowSet, bm *dataset.Bitmap) {
		t.Helper()
		chiScan, err := ChiSquareContext(ctx, v, rows, "Class", candidates)
		if err != nil {
			t.Fatal(err)
		}
		chiBm, err := ChiSquareBitmapContext(ctx, v, bm, "Class", candidates)
		if err != nil {
			t.Fatal(err)
		}
		for i := range chiScan {
			if chiScan[i] != chiBm[i] {
				t.Fatalf("%s: chi score %d = %+v, want %+v", tag, i, chiBm[i], chiScan[i])
			}
		}
	}
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*104723 + 5))
		v, candidates, rows, bm := thinClassView(t, rng)
		check(fmt.Sprintf("thin trial %d", trial), v, candidates, rows, bm)
	}
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*104729 + 1))
		v, n, candidates := randomView(t, rng)
		rows, bm := randomSubset(rng, n)
		if len(rows) == 0 {
			continue
		}
		check(fmt.Sprintf("trial %d", trial), v, candidates, rows, bm)
	}
}
