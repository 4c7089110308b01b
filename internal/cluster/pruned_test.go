package cluster

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// The pruned kernel (Hamerly/Elkan bounds + delta center updates +
// cached reseed distances) must be bit-identical to exhaustive Lloyd —
// the dense reference KMeansDense, which scans every center for every
// point and re-accumulates every center each iteration: pruning skips
// work only when the squared-distance gap provably exceeds the
// assignment epsilon, so every decision — and therefore every center,
// reseed draw, and iteration count — is unchanged. These tests pin that
// (through runBoth) across random shapes, both bound regimes, sampled
// fits, empty-cluster reseeds, and segment-boundary sizes.

// synthPoints builds matching dense/sparse encodings of n random
// categorical rows with the given attribute cardinalities.
func synthPoints(rng *rand.Rand, n int, cards []int) (*Points, *SparsePoints) {
	a := len(cards)
	offs := make([]int, a+1)
	for i, c := range cards {
		offs[i+1] = offs[i] + c
	}
	dim := offs[a]
	sp := &SparsePoints{
		Codes:   make([]int32, n*a),
		N:       n,
		A:       a,
		Dim:     dim,
		Offsets: offs,
	}
	dense := &Points{Data: make([]float64, n*dim), N: n, Dim: dim}
	for i := 0; i < n; i++ {
		for j, c := range cards {
			code := rng.Intn(c)
			sp.Codes[i*a+j] = int32(code)
			dense.Data[i*dim+offs[j]+code] = 1
		}
	}
	return dense, sp
}

func TestPrunedMatchesExhaustiveRandomShapes(t *testing.T) {
	shapes := []struct {
		n     int
		cards []int
	}{
		{60, []int{2, 3}},
		{300, []int{8, 4, 6}},
		{1000, []int{17, 3, 9, 5}},
		{2500, []int{34, 3, 10, 8, 6, 10}},
	}
	rng := rand.New(rand.NewSource(42))
	for si, sh := range shapes {
		dense, sp := synthPoints(rng, sh.n, sh.cards)
		// k spans both bound regimes: Elkan (k <= elkanMaxK) and Hamerly.
		for _, k := range []int{2, elkanMaxK, elkanMaxK + 4} {
			for seed := int64(0); seed < 3; seed++ {
				tag := "shape" + string(rune('a'+si))
				runBoth(t, tag, dense, sp, k, Options{Seed: seed})
			}
		}
	}
}

func TestPrunedSampledFit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dense, sp := synthPoints(rng, 2000, []int{12, 5, 7})
	for _, sample := range []int{100, 500, 1999} {
		runBoth(t, "sampled", dense, sp, 6, Options{Seed: 2, SampleSize: sample})
	}
}

func TestPrunedEmptyReseed(t *testing.T) {
	// Far fewer distinct tuples than centers forces empty clusters and
	// the reseed path every run.
	rng := rand.New(rand.NewSource(11))
	dense, sp := synthPoints(rng, 400, []int{2, 2})
	for k := 3; k <= 10; k++ {
		for seed := int64(0); seed < 5; seed++ {
			runBoth(t, "reseed", dense, sp, k, Options{Seed: seed})
		}
	}
}

func TestPrunedSegmentBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("segment-boundary shapes are large")
	}
	// Encode through the real table path so EncodeSparse's per-segment
	// hoisting crosses a 64K segment boundary (or lands exactly on it).
	for _, n := range []int{dataset.SegmentSize - 1, dataset.SegmentSize, dataset.SegmentSize + 1} {
		cols := []datagen.ZipfColumn{
			{Name: "a", Card: 9, S: 1.4},
			{Name: "b", Card: 5, S: 1.2},
			{Name: "c", Card: 13, S: 1.6},
		}
		tbl := datagen.ZipfTable("seg", n, cols, 3)
		v, err := dataview.New(tbl, dataview.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows := dataset.AllRows(tbl.NumRows())
		dense, sp := encodeBoth(t, v, rows, []string{"a", "b", "c"})
		runBoth(t, "segment", dense, sp, 7, Options{Seed: 1})
	}
}

func TestPrunedRestartsCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	_, sp := synthPoints(rng, 5000, []int{20, 10, 8, 6})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A fit over enough groups to fan its chunk loops out on the pool
	// must observe the canceled context and return its error.
	if _, err := KMeansContext(ctx, sp, 8, Options{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
