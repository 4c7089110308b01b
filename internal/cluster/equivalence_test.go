package cluster

import (
	"testing"
	"testing/quick"

	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// The sparse kernel's contract is not "approximately the same
// clustering" — it is bit-identical Results: every random draw, every
// assignment decision, every center coordinate, and the iteration count
// must reproduce the dense reference exactly (same seed, deterministic
// tie-breaking via the dense-distance fallback). These tests pin that
// contract on the two evaluation datasets and on adversarial inputs.

// inertia sums each point's squared distance to its assigned center over
// the dense one-hot coordinates of sp: the k-means objective, computed
// from a Result's assignments and centers for the tests that check it.
func inertia(sp *SparsePoints, res *Result) float64 {
	total := 0.0
	for i, c := range res.Assign {
		center := res.Centers[c*sp.Dim : (c+1)*sp.Dim]
		hot := make([]bool, sp.Dim)
		for a := 0; a < sp.A; a++ {
			hot[sp.Offsets[a]+int(sp.Codes[i*sp.A+a])] = true
		}
		for d, x := range center {
			if hot[d] {
				x -= 1
			}
			total += x * x
		}
	}
	return total
}

func encodeBoth(t *testing.T, v *dataview.View, rows dataset.RowSet, attrs []string) (*Points, *SparsePoints) {
	t.Helper()
	dense, denseEnc, err := Encode(v, rows, attrs)
	if err != nil {
		t.Fatal(err)
	}
	sparse, sparseEnc, err := EncodeSparse(v, rows.Bitmap(v.Rows()), attrs)
	if err != nil {
		t.Fatal(err)
	}
	if dense.N != sparse.N || dense.Dim != sparse.Dim {
		t.Fatalf("encodings disagree: dense %dx%d, sparse %dx%d", dense.N, dense.Dim, sparse.N, sparse.Dim)
	}
	for a := range denseEnc.Offsets {
		if denseEnc.Offsets[a] != sparseEnc.Offsets[a] {
			t.Fatalf("offset mismatch at %d", a)
		}
	}
	return dense, sparse
}

func assertIdentical(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if want.K != got.K {
		t.Fatalf("%s: K %d vs %d", tag, want.K, got.K)
	}
	if want.Iters != got.Iters {
		t.Fatalf("%s: Iters %d vs %d", tag, want.Iters, got.Iters)
	}
	for i := range want.Assign {
		if want.Assign[i] != got.Assign[i] {
			t.Fatalf("%s: assignment differs at point %d: %d vs %d", tag, i, want.Assign[i], got.Assign[i])
		}
	}
	for d := range want.Centers {
		if want.Centers[d] != got.Centers[d] {
			t.Fatalf("%s: center coordinate %d differs: %v vs %v", tag, d, want.Centers[d], got.Centers[d])
		}
	}
}

func runBoth(t *testing.T, tag string, dense *Points, sparse *SparsePoints, k int, opt Options) {
	t.Helper()
	want, err := KMeansDense(dense, k, opt)
	if err != nil {
		t.Fatalf("%s: dense: %v", tag, err)
	}
	got, err := KMeans(sparse, k, opt)
	if err != nil {
		t.Fatalf("%s: sparse: %v", tag, err)
	}
	assertIdentical(t, tag, want, got)
}

func TestSparseMatchesDenseMushroom(t *testing.T) {
	tbl := datagen.MushroomN(4000, 1)
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := dataset.AllRows(tbl.NumRows())
	attrs := []string{"Odor", "GillColor", "RingType", "SporePrintColor", "Habitat"}
	dense, sparse := encodeBoth(t, v, rows, attrs)
	for _, k := range []int{2, 5, 15} {
		for seed := int64(0); seed < 3; seed++ {
			runBoth(t, "mushroom", dense, sparse, k, Options{Seed: seed})
		}
	}
	// §6.3 sampled center fitting follows the same RNG stream.
	runBoth(t, "mushroom-sampled", dense, sparse, 6, Options{Seed: 2, SampleSize: 500})
}

func TestSparseMatchesDenseCars(t *testing.T) {
	tbl := datagen.UsedCarsFeatured(6000, 1)
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := dataset.AllRows(tbl.NumRows())
	attrs := []string{"Model", "Engine", "Drivetrain", "Price", "Year"}
	dense, sparse := encodeBoth(t, v, rows, attrs)
	for _, k := range []int{3, 10} {
		for seed := int64(0); seed < 3; seed++ {
			runBoth(t, "cars", dense, sparse, k, Options{Seed: seed})
		}
	}
	runBoth(t, "cars-sampled", dense, sparse, 10, Options{Seed: 1, SampleSize: 1000})
}

// TestSparseMatchesDenseFewDistinct drives k past the number of distinct
// tuples so empty centers and the reseeding path are exercised on both
// kernels.
func TestSparseMatchesDenseFewDistinct(t *testing.T) {
	tbl := dataset.NewTable("tiny", dataset.Schema{
		{Name: "A", Kind: dataset.Categorical, Queriable: true},
		{Name: "B", Kind: dataset.Categorical, Queriable: true},
	})
	vals := [][2]string{{"x", "p"}, {"x", "q"}, {"y", "p"}}
	for i := 0; i < 90; i++ {
		v := vals[i%len(vals)]
		tbl.MustAppendRow(v[0], v[1])
	}
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := dataset.AllRows(tbl.NumRows())
	dense, sparse := encodeBoth(t, v, rows, []string{"A", "B"})
	for k := 1; k <= 8; k++ {
		for seed := int64(0); seed < 5; seed++ {
			runBoth(t, "few-distinct", dense, sparse, k, Options{Seed: seed})
		}
	}
}

// Property: duplicate collapsing never changes the fitted centers (or
// anything else) — weighted Lloyd over distinct points is exactly plain
// Lloyd over the duplicated points, for arbitrary duplication patterns.
func TestCollapsePropertyCentersUnchanged(t *testing.T) {
	f := func(raw []uint8, kRaw, seedRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		// Two attributes with cardinalities 3 and 4; heavy duplication
		// by construction (at most 12 distinct tuples).
		const a0, a1 = 3, 4
		n := len(raw)
		sparse := &SparsePoints{
			Codes:   make([]int32, n*2),
			N:       n,
			A:       2,
			Dim:     a0 + a1,
			Offsets: []int{0, a0, a0 + a1},
		}
		dense := &Points{Data: make([]float64, n*(a0+a1)), N: n, Dim: a0 + a1}
		for i, v := range raw {
			c0 := int32(v) % a0
			c1 := int32(v>>2) % a1
			sparse.Codes[i*2] = c0
			sparse.Codes[i*2+1] = c1
			dense.Data[i*(a0+a1)+int(c0)] = 1
			dense.Data[i*(a0+a1)+a0+int(c1)] = 1
		}
		k := int(kRaw)%6 + 1
		opt := Options{Seed: int64(seedRaw)}
		want, err := KMeansDense(dense, k, opt)
		if err != nil {
			return false
		}
		got, err := KMeans(sparse, k, opt)
		if err != nil {
			return false
		}
		if want.K != got.K || want.Iters != got.Iters {
			return false
		}
		for i := range want.Assign {
			if want.Assign[i] != got.Assign[i] {
				return false
			}
		}
		for d := range want.Centers {
			if want.Centers[d] != got.Centers[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSilhouetteSparseMatchesDense(t *testing.T) {
	tbl := datagen.MushroomN(2000, 1)
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := dataset.AllRows(tbl.NumRows())
	attrs := []string{"Odor", "GillColor", "RingType"}
	dense, sparse := encodeBoth(t, v, rows, attrs)
	for _, k := range []int{2, 6} {
		km, err := KMeans(sparse, k, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for _, sample := range []int{0, 100, dense.N} {
			want, err := Silhouette(dense, km.Assign, km.K, sample, 9)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SilhouetteSparse(sparse, km.Assign, km.K, sample, 9)
			if err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Fatalf("k=%d sample=%d: silhouette %v vs %v", k, sample, want, got)
			}
		}
	}
}

func TestSparseKMeansEdgeCases(t *testing.T) {
	if _, err := KMeans(nil, 2, Options{}); err == nil {
		t.Error("nil points: want error")
	}
	if _, err := KMeans(&SparsePoints{N: 0}, 2, Options{}); err == nil {
		t.Error("empty points: want error")
	}
	sp := &SparsePoints{Codes: []int32{0, 1, 2}, N: 3, A: 1, Dim: 3, Offsets: []int{0, 3}}
	if _, err := KMeans(sp, 0, Options{}); err == nil {
		t.Error("k=0: want error")
	}
	// k > n clamps to n; one point per center has zero inertia.
	res, err := KMeans(sp, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Errorf("K = %d, want clamp to 3", res.K)
	}
	if got := inertia(sp, res); got != 0 {
		t.Errorf("one point per center inertia = %g", got)
	}
	// Identical points collapse to a single group.
	same := &SparsePoints{Codes: []int32{1, 1, 1, 1}, N: 4, A: 1, Dim: 2, Offsets: []int{0, 2}}
	res, err = KMeans(same, 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := inertia(same, res); got != 0 {
		t.Errorf("identical points inertia = %g", got)
	}
}
