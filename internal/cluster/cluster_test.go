package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// twoGroupView builds a table with two obvious latent groups:
// (Engine=V4, Drive=2WD, low Price) vs (Engine=V8, Drive=4WD, high Price).
func twoGroupView(t *testing.T, n int, seed int64) (*dataview.View, dataset.RowSet, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := dataset.NewTable("cars", dataset.Schema{
		{Name: "Engine", Kind: dataset.Categorical, Queriable: true},
		{Name: "Drive", Kind: dataset.Categorical, Queriable: true},
		{Name: "Price", Kind: dataset.Numeric, Queriable: true},
	})
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			truth[i] = 0
			tbl.MustAppendRow("V4", "2WD", 15000+rng.Float64()*3000)
		} else {
			truth[i] = 1
			tbl.MustAppendRow("V8", "4WD", 40000+rng.Float64()*3000)
		}
	}
	v, err := dataview.New(tbl, dataview.Options{Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	return v, dataset.AllRows(n), truth
}

func TestEncode(t *testing.T) {
	v, rows, _ := twoGroupView(t, 20, 1)
	sp, enc, err := EncodeSparse(v, rows.Bitmap(v.Rows()), []string{"Engine", "Drive", "Price"})
	if err != nil {
		t.Fatal(err)
	}
	if sp.N != 20 || sp.A != 3 {
		t.Errorf("N, A = %d, %d", sp.N, sp.A)
	}
	wantDim := 2 + 2 // Engine, Drive
	priceCol, _ := v.Column("Price")
	wantDim += priceCol.Cardinality()
	if sp.Dim != wantDim {
		t.Errorf("Dim = %d, want %d", sp.Dim, wantDim)
	}
	if len(enc.Attrs) != 3 || enc.Offsets[len(enc.Offsets)-1] != sp.Dim {
		t.Errorf("encoding metadata wrong: %+v", enc)
	}
	// Every row's code must land inside its attribute's block, i.e. the
	// implicit one-hot row has exactly one 1 per block.
	for i := 0; i < sp.N; i++ {
		for a, code := range sp.RowCodes(i) {
			lo, hi := enc.Offsets[a], enc.Offsets[a+1]
			if code < 0 || int(code) >= hi-lo || int(code) >= enc.Cards[a] {
				t.Fatalf("row %d attr %d code %d outside block [%d, %d)", i, a, code, lo, hi)
			}
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	v, rows, _ := twoGroupView(t, 5, 2)
	if _, _, err := EncodeSparse(v, rows.Bitmap(v.Rows()), nil); err == nil {
		t.Error("no attrs: want error")
	}
	if _, _, err := EncodeSparse(v, rows.Bitmap(v.Rows()), []string{"Nope"}); err == nil {
		t.Error("unknown attr: want error")
	}
}

// encodeGroups encodes twoGroupView's three attributes sparsely.
func encodeGroups(t *testing.T, v *dataview.View, rows dataset.RowSet) *SparsePoints {
	t.Helper()
	sp, _, err := EncodeSparse(v, rows.Bitmap(v.Rows()), []string{"Engine", "Drive", "Price"})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestKMeansSeparatesGroups(t *testing.T) {
	v, rows, truth := twoGroupView(t, 200, 3)
	res, err := KMeans(encodeGroups(t, v, rows), 2, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Fatalf("K = %d", res.K)
	}
	// All members of a latent group should land in one cluster.
	agree, disagree := 0, 0
	for i := range truth {
		if res.Assign[i] == truth[i] {
			agree++
		} else {
			disagree++
		}
	}
	correct := agree
	if disagree > agree {
		correct = disagree // label permutation
	}
	if correct < 195 {
		t.Errorf("separation: %d/200 correct", correct)
	}
	if len(res.Assign) != 200 {
		t.Errorf("%d assignments, want 200", len(res.Assign))
	}
}

func TestKMeansDeterministicWithSeed(t *testing.T) {
	v, rows, _ := twoGroupView(t, 100, 4)
	sp := encodeGroups(t, v, rows)
	r1, err := KMeans(sp, 3, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := KMeans(sp, 3, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Assign {
		if r1.Assign[i] != r2.Assign[i] {
			t.Fatalf("assignment differs at %d", i)
		}
	}
	if i1, i2 := inertia(sp, r1), inertia(sp, r2); i1 != i2 {
		t.Errorf("inertia differs: %g vs %g", i1, i2)
	}
}

func TestKMeansSampledFit(t *testing.T) {
	v, rows, truth := twoGroupView(t, 1000, 5)
	res, err := KMeans(encodeGroups(t, v, rows), 2, Options{Seed: 7, SampleSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != 1000 {
		t.Fatalf("sampled fit must assign all points, got %d", len(res.Assign))
	}
	agree := 0
	for i := range truth {
		if res.Assign[i] == truth[i] {
			agree++
		}
	}
	if agree < 500 {
		agree = 1000 - agree
	}
	if agree < 980 {
		t.Errorf("sampled separation: %d/1000", agree)
	}
}

// TestKMeansEdgeCases covers the inputs TestSparseKMeansEdgeCases does
// not: points without attributes, a negative k, a sample no smaller than
// the point set (which must fit unsampled), and k > n.
func TestKMeansEdgeCases(t *testing.T) {
	if _, err := KMeans(&SparsePoints{N: 3, A: 0}, 2, Options{}); err == nil {
		t.Error("no attributes: want error")
	}
	sp := &SparsePoints{Codes: []int32{0, 1, 2, 0, 1}, N: 5, A: 1, Dim: 3, Offsets: []int{0, 3}}
	if _, err := KMeans(sp, -1, Options{}); err == nil {
		t.Error("k=-1: want error")
	}
	plain, err := KMeans(sp, 2, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := KMeans(sp, 2, Options{Seed: 4, SampleSize: sp.N})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "sample>=n", plain, whole)
	res, err := KMeans(sp, 10, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != sp.N {
		t.Errorf("K = %d, want clamp to %d", res.K, sp.N)
	}
}

// Property: inertia is non-negative, every assignment is in range, and
// the sizes cover every point.
func TestKMeansInvariantProperty(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw)
		sp := &SparsePoints{Codes: make([]int32, n*2), N: n, A: 2, Dim: 32, Offsets: []int{0, 16, 32}}
		for i, v := range raw {
			sp.Codes[i*2] = int32(v % 16)
			sp.Codes[i*2+1] = int32(v / 16)
		}
		k := int(kRaw)%5 + 1
		res, err := KMeans(sp, k, Options{Seed: 3})
		if err != nil {
			return false
		}
		if inertia(sp, res) < 0 {
			return false
		}
		for _, a := range res.Assign {
			if a < 0 || a >= res.K {
				return false
			}
		}
		return len(res.Assign) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
