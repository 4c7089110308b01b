package dataview

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dbexplorer/internal/dataset"
)

// TestCountPairsMatchesRowScan checks every joint cell (both
// orientations) and every marginal of the sweep against a per-row count
// through Column.Code, over the whole snapshot and a row subset, on a
// table with NaN cells in a numeric column and a column with one value.
// It sweeps on one worker too, which reuses a single scratch table for
// every pair, so reused tables must start clean.
func TestCountPairsMatchesRowScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := dataset.NewTable("t", dataset.Schema{
		{Name: "a", Kind: dataset.Categorical},
		{Name: "one", Kind: dataset.Categorical},
		{Name: "x", Kind: dataset.Numeric},
		{Name: "b", Kind: dataset.Categorical},
	})
	const n = dataset.SegmentSize + 300
	for i := 0; i < n; i++ {
		x := rng.NormFloat64()
		if rng.Intn(10) == 0 {
			x = math.NaN()
		}
		tbl.MustAppendRow(fmt.Sprint(rng.Intn(7)), "only", x, fmt.Sprint(rng.Intn(3)))
	}
	v, err := New(tbl, Options{Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	attrs := []string{"a", "one", "x", "b"}
	var subset dataset.RowSet
	for r := 0; r < n; r += 1 + rng.Intn(4) {
		subset = append(subset, r)
	}
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		for _, rows := range []dataset.RowSet{nil, subset} {
			checkCountPairs(t, v, rows, attrs)
		}
		runtime.GOMAXPROCS(prev)
	}
	if _, err := v.CountPairs(dataset.RowSet{0, n}, attrs); err == nil {
		t.Error("row past the snapshot: want error")
	}
	if _, err := v.CountPairs(nil, []string{"a"}); err == nil {
		t.Error("one column: want error")
	}
}

func checkCountPairs(t *testing.T, v *View, rows dataset.RowSet, attrs []string) {
	t.Helper()
	pc, err := v.CountPairs(rows, attrs)
	if err != nil {
		t.Fatal(err)
	}
	scan := rows
	if scan == nil {
		scan = dataset.AllRows(v.Rows())
	}
	if pc.Rows != len(scan) {
		t.Fatalf("Rows = %d, want %d", pc.Rows, len(scan))
	}
	for i := range attrs {
		want := make([]int, pc.Cols[i].Cardinality())
		for _, r := range scan {
			if c := pc.Cols[i].Code(r); c >= 0 {
				want[c]++
			}
		}
		if fmt.Sprint(pc.Marginal(i)) != fmt.Sprint(want) {
			t.Fatalf("marginal %s = %v, want %v", attrs[i], pc.Marginal(i), want)
		}
		mj := pc.MarginalJoint(i)
		codes, counts := mj.Row(0)
		got := make([]int, mj.BCard)
		for k, c := range codes {
			got[c] = int(counts[k])
		}
		if mj.ACard() != 1 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("marginal table %s = %v over %d rows, want one row %v", attrs[i], got, mj.ACard(), want)
		}
		for j := range attrs {
			if i == j {
				continue
			}
			jt := pc.Joint(i, j)
			got := map[[2]int]int{}
			for a := 0; a < jt.ACard(); a++ {
				codes, counts := jt.Row(a)
				for k, b := range codes {
					if k > 0 && codes[k-1] >= b {
						t.Fatalf("joint %s×%s row %d not ascending", attrs[i], attrs[j], a)
					}
					got[[2]int{a, int(b)}] = int(counts[k])
				}
			}
			want := map[[2]int]int{}
			for _, r := range scan {
				a, b := pc.Cols[i].Code(r), pc.Cols[j].Code(r)
				if a >= 0 && b >= 0 {
					want[[2]int{a, b}]++
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("joint %s×%s over %d rows differs from the row scan", attrs[i], attrs[j], len(scan))
			}
		}
	}
}
