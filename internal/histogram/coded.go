package histogram

import (
	"fmt"
	"math"

	"dbexplorer/internal/parallel"
)

// BuildCodedSegs constructs the histogram of a segmented column without
// requiring a sorted copy, and additionally returns every value's bucket
// code — codes[s][i] == h.Bin(segs[s][i]) — computed in the same pass
// that tallies h.Counts. segs are the per-segment value slices of one
// column (any lengths; dataset columns hand over their 64K storage
// segments), and the codes mirror that shape. The histogram is identical
// to Build over the concatenated values: equi-width consults only the
// min and max, and equi-depth only bins-1 order statistics — the value
// at a given rank is a property of the multiset, so a three-way
// quickselect finds the same cut values in O(n) that a full O(n log n)
// sort would. V-optimal (and any input containing NaN, whose sort-first
// ordering shifts every rank) falls back to the sorted construction and
// only adds the coding pass. segs are not modified.
//
// Columns binned once and then scanned repeatedly (the CAD View build
// materializes per-row codes for every candidate attribute) get both the
// histogram and the code array out of a single construction instead of a
// column sort at view-build time plus a bin search per row later. The
// coding pass runs one morsel per segment on the shared worker pool,
// since each segment's codes and counts are independent given the edges.
func BuildCodedSegs(segs [][]float64, bins int, method Method) (*Histogram, [][]int32, error) {
	if bins < 1 {
		return nil, nil, fmt.Errorf("histogram: bins must be >= 1, got %d", bins)
	}
	n := 0
	for _, seg := range segs {
		n += len(seg)
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("histogram: no values")
	}
	lo, hi := math.NaN(), math.NaN()
	sortFallback := false
scan:
	for _, seg := range segs {
		for _, v := range seg {
			if math.IsNaN(v) {
				sortFallback = true
				break scan
			}
			if !(v >= lo) { // also catches the unset NaN sentinel
				lo = v
			}
			if !(v <= hi) {
				hi = v
			}
		}
	}
	// An infinite equi-width span makes the edge arithmetic overflow into
	// ±Inf/NaN edges, where counting by Bin and the rank-based fillCounts
	// disagree; that degenerate case keeps the reference construction.
	if method == EquiWidth && math.IsInf(hi-lo, 0) {
		sortFallback = true
	}
	if sortFallback || method == VOptimal {
		h, err := Build(flattenSegs(segs, n), bins, method)
		if err != nil {
			return nil, nil, err
		}
		codes := make([][]int32, len(segs))
		parallel.Do(len(segs), func(s int) {
			seg := segs[s]
			sc := make([]int32, len(seg))
			for i, v := range seg {
				sc[i] = int32(h.Bin(v))
			}
			codes[s] = sc
		})
		return h, codes, nil
	}

	var h *Histogram
	switch method {
	case EquiWidth:
		// buildEquiWidth reads only the extremes of its sorted input.
		h = buildEquiWidth([]float64{lo, hi}, bins)
	case EquiDepth:
		// The ranks equi-depth cuts at, deduplicated ascending.
		targets := make([]int, 0, bins-1)
		for b := 1; b < bins; b++ {
			idx := b * n / bins
			if len(targets) == 0 || targets[len(targets)-1] != idx {
				targets = append(targets, idx)
			}
		}
		scratch := flattenSegs(segs, n)
		multiSelectFloats(scratch, 0, n, targets)

		// Mirror buildEquiDepth exactly: scratch[idx] here equals
		// sorted[idx] there because multiSelectFloats placed the rank-idx
		// order statistic at each target position.
		edges := []float64{lo}
		for b := 1; b < bins; b++ {
			cut := scratch[b*n/bins]
			if cut > edges[len(edges)-1] {
				edges = append(edges, cut)
			}
		}
		if hi > edges[len(edges)-1] {
			edges = append(edges, hi)
		} else {
			// Single distinct value: degenerate one-bucket range.
			edges = append(edges, edges[len(edges)-1])
		}
		h = &Histogram{Edges: edges}
	default:
		return nil, nil, fmt.Errorf("histogram: unknown method %v", method)
	}

	// Code every value and tally counts per segment, merging the count
	// vectors after the pool drains. For NaN-free input counting by Bin
	// matches fillCounts: both send a value equal to an interior edge to
	// the bucket that edge opens, and both clamp values outside the
	// domain into the first or last bucket.
	nb := h.NumBins()
	codes := make([][]int32, len(segs))
	segCounts := make([][]int, len(segs))
	fast := nb > 1 && strictlyIncreasing(h.Edges)
	parallel.Do(len(segs), func(s int) {
		sc := make([]int32, len(segs[s]))
		counts := make([]int, nb)
		codeSegment(h, segs[s], sc, counts, fast)
		codes[s] = sc
		segCounts[s] = counts
	})
	h.Counts = make([]int, nb)
	for _, counts := range segCounts {
		for b, c := range counts {
			h.Counts[b] += c
		}
	}
	return h, codes, nil
}

// flattenSegs concatenates segmented values into one fresh slice of
// length n (zero extra work for the common single-segment case is not
// worth special-casing: the copy is the scratch both fallbacks need).
func flattenSegs(segs [][]float64, n int) []float64 {
	out := make([]float64, 0, n)
	for _, seg := range segs {
		out = append(out, seg...)
	}
	return out
}

// codeSegment writes the bucket code of every value of one segment and
// tallies the segment-local bucket counts.
func codeSegment(h *Histogram, values []float64, codes []int32, counts []int, fast bool) {
	edges := h.Edges
	nb := len(counts)
	if fast {
		// With strictly increasing edges Bin(v) is the unique bracket
		// index (edges[c] <= v < edges[c+1], ends clamped), so seed each
		// lookup arithmetically from the mean bucket width and let the
		// edge comparisons correct any float rounding — same result as
		// the binary search, without its per-value branch misses.
		invWidth := float64(nb) / (edges[nb] - edges[0])
		lo := edges[0]
		for i, v := range values {
			c := int((v - lo) * invWidth)
			if c < 0 {
				c = 0
			} else if c >= nb {
				c = nb - 1
			}
			for c > 0 && v < edges[c] {
				c--
			}
			for c < nb-1 && v >= edges[c+1] {
				c++
			}
			codes[i] = int32(c)
			counts[c]++
		}
		return
	}
	for i, v := range values {
		c := h.Bin(v)
		codes[i] = int32(c)
		counts[c]++
	}
}

// strictlyIncreasing reports whether every edge is greater than its
// predecessor — the precondition for the arithmetic bucket seed above
// (duplicate edges would need Bin's first-match tie handling).
func strictlyIncreasing(edges []float64) bool {
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			return false
		}
	}
	return true
}

// multiSelectFloats partially sorts a[lo:hi) so that every position in
// ts (ascending, all within [lo, hi)) holds the value it would hold in
// fully sorted order. Three-way partitioning keeps heavily duplicated
// columns (model years, integer prices) near-linear: the equal-to-pivot
// run is settled in one round. a must be NaN-free.
func multiSelectFloats(a []float64, lo, hi int, ts []int) {
	for len(ts) > 0 && hi-lo > 1 {
		if hi-lo <= 48 {
			insertionSortFloats(a[lo:hi])
			return
		}
		p := medianOfThreeFloats(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		lt, gt := partition3Floats(a, lo, hi, p)
		// Targets inside [lt, gt) already hold the pivot value; only the
		// flanks still need work.
		i := 0
		for i < len(ts) && ts[i] < lt {
			i++
		}
		j := i
		for j < len(ts) && ts[j] < gt {
			j++
		}
		left, right := ts[:i], ts[j:]
		// Recurse into the smaller side, loop on the larger to bound stack
		// depth.
		if lt-lo < hi-gt {
			multiSelectFloats(a, lo, lt, left)
			lo, ts = gt, right
		} else {
			multiSelectFloats(a, gt, hi, right)
			hi, ts = lt, left
		}
	}
}

// partition3Floats partitions a[lo:hi) around pivot value p into
// [lo,lt) < p, [lt,gt) == p, [gt,hi) > p, returning lt and gt.
func partition3Floats(a []float64, lo, hi int, p float64) (int, int) {
	lt, i, gt := lo, lo, hi
	for i < gt {
		switch v := a[i]; {
		case v < p:
			a[lt], a[i] = a[i], a[lt]
			lt++
			i++
		case v > p:
			gt--
			a[gt], a[i] = a[i], a[gt]
		default:
			i++
		}
	}
	return lt, gt
}

func medianOfThreeFloats(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
		if a > b {
			b = a
		}
	}
	return b
}

func insertionSortFloats(a []float64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
