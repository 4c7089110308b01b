package cluster

// The dense reference kernel: one-hot points materialized as Dim-wide
// float rows, plain Lloyd with k-means++ seeding, and the exact dense
// silhouette. It shares no code with the production sparse kernel
// (sparse.go) and exists only so the equivalence suites can pin KMeans
// and SilhouetteSparse to it bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// Points is a row-major dense matrix of n points in dim dimensions.
type Points struct {
	Data []float64
	N    int
	Dim  int
}

// Row returns point i as a slice into Data.
func (p *Points) Row(i int) []float64 { return p.Data[i*p.Dim : (i+1)*p.Dim] }

// Encode one-hot encodes the given attributes of the view over rows.
// The i-th encoded point corresponds to rows[i].
func Encode(v *dataview.View, rows dataset.RowSet, attrs []string) (*Points, *Encoding, error) {
	if len(attrs) == 0 {
		return nil, nil, fmt.Errorf("cluster: no attributes to encode")
	}
	enc := &Encoding{Attrs: append([]string(nil), attrs...)}
	cols := make([]*dataview.Column, len(attrs))
	dim := 0
	for i, name := range attrs {
		c, err := v.Column(name)
		if err != nil {
			return nil, nil, err
		}
		cols[i] = c
		enc.Offsets = append(enc.Offsets, dim)
		enc.Cards = append(enc.Cards, c.Cardinality())
		dim += c.Cardinality()
	}
	enc.Offsets = append(enc.Offsets, dim)
	p := &Points{Data: make([]float64, len(rows)*dim), N: len(rows), Dim: dim}
	for i, r := range rows {
		row := p.Row(i)
		for a, c := range cols {
			code := c.Code(r)
			if code < 0 {
				// NaN cells code -1; clamp to the attribute's first
				// coordinate so all three encoders (dense, sparse scan,
				// sparse bitmap — whose postings simply leave absent rows
				// at the zero code) produce identical points.
				code = 0
			}
			row[enc.Offsets[a]+code] = 1
		}
	}
	return p, enc, nil
}

// KMeansDense clusters the dense one-hot matrix p into at most k groups.
// It is the reference implementation the sparse KMeans kernel is verified
// against (bit-identical results) and the baseline for the clustering
// ablation benches.
func KMeansDense(p *Points, k int, opt Options) (*Result, error) {
	if p == nil || p.N == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if k < 1 {
		return nil, fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	if k > p.N {
		k = p.N
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	fitPoints := p
	if opt.SampleSize > 0 && opt.SampleSize < p.N {
		idx := rng.Perm(p.N)[:opt.SampleSize]
		fp := &Points{Data: make([]float64, opt.SampleSize*p.Dim), N: opt.SampleSize, Dim: p.Dim}
		for i, j := range idx {
			copy(fp.Row(i), p.Row(j))
		}
		fitPoints = fp
		if k > fitPoints.N {
			k = fitPoints.N
		}
	}

	centers := seedPlusPlus(fitPoints, k, rng)
	assign := make([]int, fitPoints.N)
	counts := make([]int, k)
	iters := 0
	for ; iters < maxIter; iters++ {
		changed := assignPoints(fitPoints, centers, k, assign)
		if !changed && iters > 0 {
			break
		}
		// Recompute centers.
		for i := range centers {
			centers[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < fitPoints.N; i++ {
			c := assign[i]
			counts[c]++
			row := fitPoints.Row(i)
			cr := centers[c*fitPoints.Dim : (c+1)*fitPoints.Dim]
			for d, x := range row {
				cr[d] += x
			}
		}
		var empty []int
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				empty = append(empty, c)
				continue
			}
			inv := 1 / float64(counts[c])
			for d := 0; d < fitPoints.Dim; d++ {
				centers[c*fitPoints.Dim+d] *= inv
			}
		}
		if len(empty) > 0 {
			reseedEmpty(fitPoints, centers, assign, empty)
		}
	}

	// Final assignment of all points (covers the sampled-fit path too).
	finalAssign := make([]int, p.N)
	assignPoints(p, centers, k, finalAssign)
	return &Result{K: k, Assign: finalAssign, Centers: centers, Iters: iters}, nil
}

// reseedEmpty re-seeds empty centers at the points farthest from their
// assigned centers, each empty center taking a *distinct* point. With
// fewer distinct points than centers (degenerate one-hot data) the
// duplicate-point centers stay empty and stable rather than thrashing
// the same farthest point between centers every iteration.
func reseedEmpty(p *Points, centers []float64, assign []int, empty []int) {
	type cand struct {
		idx int
		d   float64
	}
	cands := make([]cand, p.N)
	for i := 0; i < p.N; i++ {
		c := assign[i]
		cands[i] = cand{i, sqDist(p.Row(i), centers[c*p.Dim:(c+1)*p.Dim])}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d > cands[b].d })
	used := 0
	for _, c := range empty {
		// Skip duplicates of already-taken seeds so two empty centers
		// never collapse onto the same point.
		for used < len(cands) && used > 0 && sameRow(p, cands[used].idx, cands[used-1].idx) {
			used++
		}
		// Rounding can make a pure cluster's mean differ from its
		// points by ~1e-32; such "distances" must not trigger a
		// re-seed or the seeded copy steals the whole cluster and the
		// loop oscillates until maxIter.
		const eps = 1e-9
		if used >= len(cands) || cands[used].d <= eps {
			break // no genuinely distant point left; leave center as is
		}
		copy(centers[c*p.Dim:(c+1)*p.Dim], p.Row(cands[used].idx))
		used++
	}
}

func sameRow(p *Points, i, j int) bool {
	a, b := p.Row(i), p.Row(j)
	for d := range a {
		if a[d] != b[d] {
			return false
		}
	}
	return true
}

func assignPoints(p *Points, centers []float64, k int, assign []int) bool {
	changed := false
	for i := 0; i < p.N; i++ {
		row := p.Row(i)
		best, bestD := 0, math.MaxFloat64
		for c := 0; c < k; c++ {
			d := sqDist(row, centers[c*p.Dim:(c+1)*p.Dim])
			if d < bestD {
				best, bestD = c, d
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed = true
		}
	}
	return changed
}

// seedPlusPlus implements k-means++ center initialization.
func seedPlusPlus(p *Points, k int, rng *rand.Rand) []float64 {
	centers := make([]float64, k*p.Dim)
	first := rng.Intn(p.N)
	copy(centers[:p.Dim], p.Row(first))
	d2 := make([]float64, p.N)
	for i := range d2 {
		d2[i] = sqDist(p.Row(i), centers[:p.Dim])
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(p.N)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			pick = p.N - 1
			for i, d := range d2 {
				acc += d
				if acc >= target {
					pick = i
					break
				}
			}
		}
		cr := centers[c*p.Dim : (c+1)*p.Dim]
		copy(cr, p.Row(pick))
		for i := range d2 {
			if d := sqDist(p.Row(i), cr); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centers
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return s
}

// Silhouette is the dense reference for SilhouetteSparse: the same
// sampled mean silhouette coefficient, with distances computed over the
// expanded Dim-wide rows.
func Silhouette(p *Points, assign []int, k int, sample int, seed int64) (float64, error) {
	if p == nil || p.N == 0 {
		return 0, fmt.Errorf("cluster: no points")
	}
	if len(assign) != p.N {
		return 0, fmt.Errorf("cluster: %d assignments for %d points", len(assign), p.N)
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

	// Points grouped by cluster (indices).
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
		// A single cluster has no separation to measure.
		return 0, nil
	}

	idx := make([]int, p.N)
	for i := range idx {
		idx[i] = i
	}
	if p.N > sample {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(p.N, func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		idx = idx[:sample]
	}

	var total float64
	counted := 0
	for _, i := range idx {
		own := assign[i]
		if len(byCluster[own]) < 2 {
			// Singleton clusters contribute silhouette 0 by convention.
			counted++
			continue
		}
		var a float64
		for _, j := range byCluster[own] {
			if j != i {
				a += sqDist(p.Row(i), p.Row(j))
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
				d += sqDist(p.Row(i), p.Row(j))
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
