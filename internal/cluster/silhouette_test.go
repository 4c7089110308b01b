package cluster

import (
	"math/rand"
	"testing"
)

// blobs draws n one-hot points around len(protos) categorical prototypes
// (point i belongs to prototype i mod len(protos)): each point copies its
// prototype's codes and replaces each one with a uniformly random code of
// the attribute with probability noise.
func blobs(n int, protos [][]int32, card int, noise float64, seed int64) (*SparsePoints, []int) {
	rng := rand.New(rand.NewSource(seed))
	a := len(protos[0])
	offs := make([]int, a+1)
	for i := range offs {
		offs[i] = i * card
	}
	sp := &SparsePoints{Codes: make([]int32, n*a), N: n, A: a, Dim: a * card, Offsets: offs}
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % len(protos)
		truth[i] = c
		for j, code := range protos[c] {
			if rng.Float64() < noise {
				code = int32(rng.Intn(card))
			}
			sp.Codes[i*a+j] = code
		}
	}
	return sp, truth
}

var twoProtos = [][]int32{{0, 0, 0, 0, 0, 0}, {1, 1, 1, 1, 1, 1}}

func TestSilhouetteWellSeparated(t *testing.T) {
	sp, truth := blobs(200, twoProtos, 8, 0.05, 1)
	s, err := SilhouetteSparse(sp, truth, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.85 {
		t.Errorf("well-separated blobs silhouette = %g, want > 0.85", s)
	}
}

func TestSilhouetteBadClustering(t *testing.T) {
	sp, truth := blobs(200, twoProtos, 8, 0.05, 2)
	// Scramble: assign points to the wrong cluster half the time.
	bad := make([]int, len(truth))
	for i := range bad {
		if i%2 == 0 {
			bad[i] = 1 - truth[i]
		} else {
			bad[i] = truth[i]
		}
	}
	good, err := SilhouetteSparse(sp, truth, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	poor, err := SilhouetteSparse(sp, bad, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if poor >= good {
		t.Errorf("scrambled clustering silhouette %g >= correct %g", poor, good)
	}
}

func TestSilhouetteRightKWins(t *testing.T) {
	// Three true blobs: k=3 k-means should out-score k=2 and k=6.
	protos := [][]int32{{0, 0, 0, 0, 0, 0}, {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2}}
	sp, _ := blobs(300, protos, 8, 0.1, 3)
	scores := map[int]float64{}
	for _, k := range []int{2, 3, 6} {
		km, err := KMeans(sp, k, Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		s, err := SilhouetteSparse(sp, km.Assign, km.K, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		scores[k] = s
	}
	if scores[3] <= scores[2] || scores[3] <= scores[6] {
		t.Errorf("true k=3 not best: %v", scores)
	}
}

func TestSilhouetteSampled(t *testing.T) {
	sp, truth := blobs(2000, twoProtos, 8, 0.05, 4)
	full, err := SilhouetteSparse(sp, truth, 2, sp.N, 1)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := SilhouetteSparse(sp, truth, 2, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sampled < full-0.1 || sampled > full+0.1 {
		t.Errorf("sampled silhouette %g far from full %g", sampled, full)
	}
}

func TestSilhouetteEdgeCases(t *testing.T) {
	sp := &SparsePoints{Codes: []int32{0, 1, 2}, N: 3, A: 1, Dim: 3, Offsets: []int{0, 3}}
	// Single cluster: no separation to measure.
	s, err := SilhouetteSparse(sp, []int{0, 0, 0}, 1, 0, 1)
	if err != nil || s != 0 {
		t.Errorf("single cluster: s=%g err=%v", s, err)
	}
	// Singleton clusters contribute 0.
	s, err = SilhouetteSparse(sp, []int{0, 1, 2}, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Errorf("all-singletons silhouette = %g", s)
	}
	if _, err := SilhouetteSparse(nil, nil, 1, 0, 1); err == nil {
		t.Error("nil points: want error")
	}
	if _, err := SilhouetteSparse(sp, []int{0}, 1, 0, 1); err == nil {
		t.Error("assignment length mismatch: want error")
	}
	if _, err := SilhouetteSparse(sp, []int{0, 0, 5}, 2, 0, 1); err == nil {
		t.Error("out-of-range assignment: want error")
	}
	if _, err := SilhouetteSparse(sp, []int{0, 0, 0}, 0, 0, 1); err == nil {
		t.Error("k=0: want error")
	}
}
