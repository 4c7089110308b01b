package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// randomRows draws a random subset of [0, n) as a sorted row set and the
// equivalent bitmap.
func randomRows(rng *rand.Rand, n int) (dataset.RowSet, *dataset.Bitmap) {
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

// TestResolvePivotValuesBitmapMatchesScan is the partition property test:
// over random result subsets, the posting-driven resolver must produce
// the row-scan reference's value order and identical per-value row
// subsets — default order and explicit values, categorical and numeric
// pivots — on a small table and on tables whose row counts sit inside
// one 64K segment, one row past a segment edge, and on two full
// segments.
func TestResolvePivotValuesBitmapMatchesScan(t *testing.T) {
	v, _ := miniCars(t, 500, 3)
	checkResolvePivotValues(t, v, []string{"Make", "Price"}, []string{"Alpha", "Gamma"}, 15)
	for _, n := range []int{40000, dataset.SegmentSize + 1, 2 * dataset.SegmentSize} {
		tbl := datagen.ZipfTable(fmt.Sprintf("boundary%d", n), n, []datagen.ZipfColumn{
			{Name: "c0", Card: 50, S: 1.3},
			{Name: "c1", Card: 40, S: 1.2},
		}, int64(n))
		bv, err := dataview.New(tbl, dataview.Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkResolvePivotValues(t, bv, []string{"c0", "score"}, []string{"v0003", "v0000"}, 3)
	}
}

// checkResolvePivotValues compares the two pivot resolvers on trials
// random subsets of v's rows (every third trial with explicit values:
// catExplicit for categorical pivots, the first two labels otherwise),
// plus the full row set.
func checkResolvePivotValues(t *testing.T, v *dataview.View, pivots, catExplicit []string, trials int) {
	t.Helper()
	n := v.Table().NumRows()
	for _, pivot := range pivots {
		pivotCol, err := v.Column(pivot)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial <= trials; trial++ {
			rows, bm := dataset.AllRows(n), dataset.FullBitmap(n)
			if trial < trials {
				rng := rand.New(rand.NewSource(int64(trial)*31 + 7))
				rows, bm = randomRows(rng, n)
			}
			if len(rows) == 0 {
				continue
			}
			var explicit []string
			if trial%3 == 1 {
				explicit = catExplicit
				if pivotCol.Kind == dataset.Numeric {
					explicit = pivotCol.Labels()[:2]
				}
			}
			wantVals, wantRows, err := resolvePivotValues(pivotCol, rows, explicit)
			if err != nil {
				t.Fatal(err)
			}
			gotVals, gotBms, err := resolvePivotValuesBitmap(pivotCol, bm, explicit)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantVals, gotVals) {
				t.Fatalf("n=%d pivot %s trial %d: values = %v, want %v", n, pivot, trial, gotVals, wantVals)
			}
			for i, val := range wantVals {
				got := append([]int(nil), gotBms[i].ToRowSet()...)
				if !reflect.DeepEqual([]int(wantRows[val]), got) {
					t.Fatalf("n=%d pivot %s trial %d: rows[%s] differ (%d vs %d rows)", n, pivot, trial, val, len(got), len(wantRows[val]))
				}
			}
		}
	}
}

// TestSampleRowsBitmapMatchesSampleRows pins the bitmap sampler to the
// row-slice reference sampler position for position — the sample feeds
// the class remap, so even a reordering of identical rows would change
// downstream output.
func TestSampleRowsBitmapMatchesSampleRows(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 11))
		n := 40 + rng.Intn(500)
		rows, bm := randomRows(rng, n)
		if len(rows) == 0 {
			continue
		}
		size := 1 + rng.Intn(len(rows)+10)
		seed := rng.Int63() - rng.Int63()
		want := sampleRows(rows, size, seed)
		got := sampleRowsBitmap(bm, size, seed)
		if !reflect.DeepEqual([]int(want), []int(got)) {
			t.Fatalf("trial %d (n=%d size=%d seed=%d):\n got %v\nwant %v", trial, len(rows), size, seed, got, want)
		}
	}
}

// TestBuildPathsByteIdentical is the top-level bit-identity guarantee:
// the production build must render a CAD View byte-identical to, and
// structurally equal with, the row-scan reference build (scanBuild)
// across a spread of configurations.
func TestBuildPathsByteIdentical(t *testing.T) {
	v, rows := miniCars(t, 700, 21)
	configs := []Config{
		{Pivot: "Make", Seed: 1},
		{Pivot: "Make", K: 2, L: 5, Seed: 9, Parallel: true},
		{Pivot: "Price", K: 3, Seed: 4},
		{Pivot: "Make", PivotValues: []string{"Gamma", "Alpha"}, Seed: 2},
		{Pivot: "Make", CompareAttrs: []string{"Color"}, MaxCompare: 3, Seed: 3},
		{Pivot: "Make", FeatureSampleSize: 120, ClusterSampleSize: 150, Seed: 8},
		{Pivot: "Make", AutoL: true, K: 2, Seed: 6},
	}
	for i, cfg := range configs {
		want, err := scanBuild(context.Background(), v, rows, cfg)
		if err != nil {
			t.Fatalf("config %d scan reference: %v", i, err)
		}
		got, _, err := Build(v, rows, cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if Render(want, nil) != Render(got, nil) {
			t.Errorf("config %d: rendered CAD View differs from the scan reference", i)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("config %d: CAD View structure differs from the scan reference", i)
		}
	}
}
