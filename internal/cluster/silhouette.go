package cluster

import (
	"fmt"
	"math/rand"
)

// SilhouetteSparse computes the mean silhouette coefficient of a
// clustering of sparse one-hot points — the quality score the CAD View
// builder uses to choose the number of generated IUnits l when asked to
// (paper §2.2.2: "l can be chosen by iterating through all plausible l
// values and evaluating the quality of the resulting CAD View"). The
// coefficient lies in [-1, 1]; higher means tighter, better-separated
// clusters.
//
// The exact statistic is O(n²); sample bounds the evaluated points
// (0 means at most 256). Distances between unsampled points still count
// via the sampled point's perspective only, the standard approximation.
// Pairwise squared distances between one-hot rows are exact integers (2×
// the number of differing attributes), so every per-point coefficient —
// and the returned mean — is bit-identical to the dense silhouette of
// the expanded matrix (the reference in dense_test.go), at O(|attrs|)
// per pair instead of O(Dim).
func SilhouetteSparse(sp *SparsePoints, assign []int, k, sample int, seed int64) (float64, error) {
	if sp == nil || sp.N == 0 {
		return 0, fmt.Errorf("cluster: no points")
	}
	if len(assign) != sp.N {
		return 0, fmt.Errorf("cluster: %d assignments for %d points", len(assign), sp.N)
	}
	if k < 1 {
		return 0, fmt.Errorf("cluster: k must be >= 1")
	}
	for i, a := range assign {
		if a < 0 || a >= k {
			return 0, fmt.Errorf("cluster: assignment %d of point %d out of range", a, i)
		}
	}
	if sample <= 0 {
		sample = 256
	}

	byCluster := make([][]int, k)
	for i, a := range assign {
		byCluster[a] = append(byCluster[a], i)
	}
	nonEmpty := 0
	for _, members := range byCluster {
		if len(members) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		return 0, nil
	}

	idx := make([]int, sp.N)
	for i := range idx {
		idx[i] = i
	}
	if sp.N > sample {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(sp.N, func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		idx = idx[:sample]
	}

	var total float64
	counted := 0
	for _, i := range idx {
		own := assign[i]
		if len(byCluster[own]) < 2 {
			counted++
			continue
		}
		rowI := sp.RowCodes(i)
		var a float64
		for _, j := range byCluster[own] {
			if j != i {
				a += groupDist2(rowI, sp.RowCodes(j))
			}
		}
		a /= float64(len(byCluster[own]) - 1)

		b := -1.0
		for c, members := range byCluster {
			if c == own || len(members) == 0 {
				continue
			}
			var d float64
			for _, j := range members {
				d += groupDist2(rowI, sp.RowCodes(j))
			}
			d /= float64(len(members))
			if b < 0 || d < b {
				b = d
			}
		}
		if m := max(a, b); m > 0 {
			total += (b - a) / m
		}
		counted++
	}
	if counted == 0 {
		return 0, nil
	}
	return total / float64(counted), nil
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
