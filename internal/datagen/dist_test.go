package datagen

import (
	"math/rand"
	"testing"

	"dbexplorer/internal/dataset"
)

func TestZipfTableSkewAndDeterminism(t *testing.T) {
	cols := []ZipfColumn{{Name: "make", Card: 200, S: 1.3}, {Name: "color", Card: 50, S: 1.5}}
	a := ZipfTable("z", 20000, cols, 7)
	b := ZipfTable("z", 20000, cols, 7)
	if a.NumRows() != 20000 || a.NumCols() != 3 {
		t.Fatalf("got %d rows × %d cols", a.NumRows(), a.NumCols())
	}
	for r := 0; r < a.NumRows(); r += 997 {
		for c := 0; c < a.NumCols(); c++ {
			if a.CellString(r, c) != b.CellString(r, c) {
				t.Fatalf("cell (%d,%d) differs between same-seed runs", r, c)
			}
		}
	}
	// Skew: the head value must dominate a deep-tail value by an order
	// of magnitude, and codes are labeled in frequency order so v0000 is
	// the head.
	counts := a.CodeCounts(0, dataset.AllRows(a.NumRows()))
	col, err := a.CatByName("make")
	if err != nil {
		t.Fatal(err)
	}
	head := counts[col.CodeOf("v0000")]
	if head < a.NumRows()/10 {
		t.Errorf("head value owns only %d of %d rows — not skewed", head, a.NumRows())
	}
	tail := 0
	if c := col.CodeOf("v0099"); c >= 0 {
		tail = counts[c]
	}
	if tail*10 > head {
		t.Errorf("tail value (%d rows) within 10x of head (%d rows)", tail, head)
	}
}

func TestWeightedRespectsZeroWeights(t *testing.T) {
	// Cumulative weights of {0, 2, 0, 1}, as the generators build them.
	rng := rand.New(rand.NewSource(3))
	seen := make(map[int]int)
	for i := 0; i < 5000; i++ {
		seen[weightedIndex(rng, []float64{0, 2, 2, 3}, 3)]++
	}
	if seen[0] != 0 || seen[2] != 0 {
		t.Fatalf("zero-weight indices drawn: %v", seen)
	}
	if seen[1] == 0 || seen[3] == 0 {
		t.Fatalf("positive-weight indices never drawn: %v", seen)
	}
	if seen[1] < seen[3] {
		t.Errorf("weight 2 index drawn less often than weight 1: %v", seen)
	}
}
