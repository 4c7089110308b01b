package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/parallel"
)

// SparsePoints is a one-hot encoding kept in sparse form: row i is fully
// determined by its per-attribute codes, so only those A integers are
// stored instead of the Dim-wide dense expansion.
// Row i's implicit dense coordinates are 1 at Offsets[a]+Codes[i*A+a] for
// every attribute a and 0 elsewhere.
type SparsePoints struct {
	// Codes is row-major N×A.
	Codes []int32
	// N is the number of points, A the number of encoded attributes.
	N, A int
	// Dim is the dense dimension (sum of attribute cardinalities).
	Dim int
	// Offsets[a] is the first dense coordinate of attribute a's block; a
	// final sentinel entry holds Dim.
	Offsets []int

	// key0 optionally holds each point's composite code key over the
	// first key0Span attributes (the same key collapse's first refinement
	// round would compute). Encoders that already have the codes in
	// registers fill it so collapse can skip one full pass over Codes.
	key0     []int32
	key0Span int

	collapseOnce sync.Once
	groups       *groupSet
}

// RowCodes returns point i's attribute codes as a slice into Codes.
func (sp *SparsePoints) RowCodes(i int) []int32 { return sp.Codes[i*sp.A : (i+1)*sp.A] }

// EncodeSparse encodes the given attributes of the view over the rows of
// bm in sparse form. The i-th point is bm's i-th row in ascending order;
// the returned Encoding carries each attribute's block offset and
// cardinality, so centroids decode back into per-attribute value
// frequencies.
func EncodeSparse(v *dataview.View, bm *dataset.Bitmap, attrs []string) (*SparsePoints, *Encoding, error) {
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
	n := bm.Len()
	sp := &SparsePoints{
		Codes:   make([]int32, n*len(attrs)),
		N:       n,
		A:       len(attrs),
		Dim:     dim,
		Offsets: enc.Offsets,
	}
	// Emit collapse's first-round composite key while the row codes are
	// still in registers, sparing collapse one full pass over Codes.
	span, keys := fuseSpan(enc.Offsets, 0, 1, sp.N, sp.A)
	var key0 []int32
	if sp.N > 0 && keys <= 4*sp.N {
		key0 = make([]int32, sp.N)
		sp.key0, sp.key0Span = key0, span
	} else {
		span = 0
	}
	cards32 := make([]int32, span)
	for a := 0; a < span; a++ {
		cards32[a] = int32(enc.Offsets[a+1] - enc.Offsets[a])
	}
	codes := make([][][]int32, len(cols))
	for a, c := range cols {
		codes[a] = c.CodeSegs()
	}
	// Hoist the per-attribute segment slices out of the row loop: the
	// bitmap yields rows in ascending order, so the segment changes at
	// most once per 64K rows and the hot cell read is a single indexed
	// load per attribute.
	segs := make([][]int32, len(cols))
	curSeg := -1
	i := 0
	bm.ForEach(func(r int) {
		row := sp.Codes[i*sp.A : (i+1)*sp.A]
		s, off := r>>dataset.SegmentBits, r&dataset.SegmentMask
		if s != curSeg {
			for a := range codes {
				segs[a] = codes[a][s]
			}
			curSeg = s
		}
		k := int32(0)
		for a := 0; a < span; a++ {
			c := segs[a][off]
			if c < 0 {
				// NaN cells clamp to code 0, the attribute's first
				// coordinate (the dense reference encoder does the same).
				c = 0
			}
			row[a] = c
			k = k*cards32[a] + c
		}
		for a := span; a < len(segs); a++ {
			c := segs[a][off]
			if c < 0 {
				c = 0
			}
			row[a] = c
		}
		if key0 != nil {
			key0[i] = k
		}
		i++
	})
	return sp, enc, nil
}

// groupSet is a duplicate-collapsed view of a point sequence: distinct
// code tuples in first-occurrence order, each with its multiplicity and
// the point→group mapping. Weighted Lloyd over groups is exactly
// equivalent to plain Lloyd over the underlying points.
type groupSet struct {
	codes  []int32 // row-major G×A, distinct tuples in first-occurrence order
	weight []int   // weight[g] is the number of points in group g
	of     []int32 // of[i] is the group of point i
	rep    []int32 // rep[g] is the first point index of group g
	g      int     // number of groups
	a      int     // attributes per tuple
}

func (gs *groupSet) rowCodes(g int) []int32 { return gs.codes[g*gs.a : (g+1)*gs.a] }

// collapse groups identical points, caching the result on sp. Groups
// are found by integer refinement rather than hashing whole tuples:
// start with every point in one group, then repeatedly split groups on
// the next attributes' codes via a (group, codes...) remap. Each round
// assigns new group ids in point order, and refining on a composite key
// (id, c_a, c_b) yields — by induction — exactly the ids two successive
// single-attribute refinements produce, so rounds greedily swallow as
// many attributes as keep the dense remap within a small multiple of N:
// after the last round the ids sit in first-occurrence order of the
// full tuples — the same numbering a tuple-keyed map produces — in far
// fewer passes over the points than one-round-per-attribute. A round
// whose very first attribute already blows the dense budget falls back
// to a map (pathologically high-cardinality attributes).
func (sp *SparsePoints) collapse() *groupSet {
	sp.collapseOnce.Do(func() {
		n := sp.N
		ids := make([]int32, n) // current group of each point; one group to start
		next := make([]int32, n)
		g := 1
		if n == 0 {
			g = 0
		}
		var gs *groupSet
		for a := 0; a < sp.A; {
			// Fuse attributes [a, a+span) into one refinement round while
			// the composite key space g·Πcard stays dense-remap sized.
			span, keys := fuseSpan(sp.Offsets, a, g, n, sp.A)
			last := a+span == sp.A
			ng := 0
			if keys <= 4*n {
				// remap stores id+1 so the zero value means "unseen" and
				// make's memclr is the only initialization the array needs.
				remap := make([]int32, keys)
				useKey0 := a == 0 && sp.key0 != nil && span == sp.key0Span
				if last {
					// The final round already discovers each group's first
					// occurrence (the id==0 branch), so the group build
					// fuses into it instead of costing one more pass.
					gs = sp.buildFinalDense(ids, next, remap, a, span, useKey0)
					g = gs.g
				} else if useKey0 {
					// The encoder already emitted this round's keys.
					for i, k := range sp.key0 {
						id := remap[k]
						if id == 0 {
							ng++
							id = int32(ng)
							remap[k] = id
						}
						next[i] = id - 1
					}
				} else {
					for i := 0; i < n; i++ {
						k := int(ids[i])
						for j := a; j < a+span; j++ {
							k = k*(sp.Offsets[j+1]-sp.Offsets[j]) + int(sp.Codes[i*sp.A+j])
						}
						id := remap[k]
						if id == 0 {
							ng++
							id = int32(ng)
							remap[k] = id
						}
						next[i] = id - 1
					}
				}
			} else {
				card := keys / g
				remap := make(map[int64]int32, g)
				for i := 0; i < n; i++ {
					k := int64(ids[i])*int64(card) + int64(sp.Codes[i*sp.A+a])
					id, ok := remap[k]
					if !ok {
						id = int32(ng)
						remap[k] = id
						ng++
					}
					next[i] = id
				}
			}
			if gs == nil {
				ids, next = next, ids
				g = ng
			}
			a += span
		}
		if gs == nil {
			// The last round fell back to the map (or n == 0): gather
			// weights, reps, and group codes in a separate pass.
			gs = &groupSet{
				codes:  make([]int32, g*sp.A),
				weight: make([]int, g),
				of:     ids,
				rep:    make([]int32, g),
				g:      g,
				a:      sp.A,
			}
			for i := 0; i < n; i++ {
				id := ids[i]
				gs.weight[id]++
				if gs.weight[id] == 1 {
					gs.rep[id] = int32(i)
					copy(gs.codes[int(id)*sp.A:(int(id)+1)*sp.A], sp.RowCodes(i))
				}
			}
		}
		sp.groups = gs
	})
	return sp.groups
}

// buildFinalDense runs collapse's final dense refinement round fused
// with the group construction: the round's unseen-key branch is exactly
// a group's first occurrence, so weights, reps, and group codes build
// in the same pass that assigns final ids (written into of).
func (sp *SparsePoints) buildFinalDense(ids, of, remap []int32, a, span int, useKey0 bool) *groupSet {
	n := sp.N
	cap0 := len(remap)
	if n < cap0 {
		cap0 = n
	}
	gs := &groupSet{
		codes:  make([]int32, 0, cap0*sp.A),
		weight: make([]int, 0, cap0),
		rep:    make([]int32, 0, cap0),
		of:     of,
		a:      sp.A,
	}
	ng := 0
	if useKey0 {
		for i, k := range sp.key0 {
			id := remap[k]
			if id == 0 {
				ng++
				id = int32(ng)
				remap[k] = id
				gs.rep = append(gs.rep, int32(i))
				gs.weight = append(gs.weight, 1)
				gs.codes = append(gs.codes, sp.RowCodes(i)...)
			} else {
				gs.weight[id-1]++
			}
			of[i] = id - 1
		}
	} else {
		for i := 0; i < n; i++ {
			k := int(ids[i])
			for j := a; j < a+span; j++ {
				k = k*(sp.Offsets[j+1]-sp.Offsets[j]) + int(sp.Codes[i*sp.A+j])
			}
			id := remap[k]
			if id == 0 {
				ng++
				id = int32(ng)
				remap[k] = id
				gs.rep = append(gs.rep, int32(i))
				gs.weight = append(gs.weight, 1)
				gs.codes = append(gs.codes, sp.RowCodes(i)...)
			} else {
				gs.weight[id-1]++
			}
			of[i] = id - 1
		}
	}
	gs.g = ng
	return gs
}

// CodeCountsByCluster tallies, per cluster and encoded attribute, how
// many of the cluster's points carry each code — exactly the frequency
// tables IUnit labeling builds by re-reading member rows, derived here
// from the collapsed groups instead (weight[g] points at a time). assign
// must be constant within each duplicate group, which holds for every
// KMeans result on sp: assignment is computed per group and fanned out
// to points. Entries of assign outside [0, k) are skipped.
func (sp *SparsePoints) CodeCountsByCluster(assign []int, k int) [][][]int {
	gs := sp.collapse()
	counts := make([][][]int, k)
	for c := range counts {
		counts[c] = make([][]int, sp.A)
		for a := 0; a < sp.A; a++ {
			counts[c][a] = make([]int, sp.Offsets[a+1]-sp.Offsets[a])
		}
	}
	for g := 0; g < gs.g; g++ {
		c := assign[gs.rep[g]]
		if c < 0 || c >= k {
			continue
		}
		w := gs.weight[g]
		for a, code := range gs.rowCodes(g) {
			counts[c][a][code] += w
		}
	}
	return counts
}

// subCollapse re-collapses the points idx (in order) against an existing
// collapse of the full set, sharing the parent's code storage.
func subCollapse(full *groupSet, idx []int) *groupSet {
	gs := &groupSet{of: make([]int32, len(idx)), a: full.a}
	remap := make([]int32, full.g)
	for i := range remap {
		remap[i] = -1
	}
	for j, i := range idx {
		fg := full.of[i]
		id := remap[fg]
		if id < 0 {
			id = int32(gs.g)
			remap[fg] = id
			gs.codes = append(gs.codes, full.rowCodes(int(fg))...)
			gs.weight = append(gs.weight, 0)
			gs.rep = append(gs.rep, int32(j))
			gs.g++
		}
		gs.weight[id]++
		gs.of[j] = id
	}
	return gs
}

// groupDist2 is the squared Euclidean distance between two one-hot rows
// given by their codes: exactly 2·(number of differing attributes), an
// integer, so it is bit-identical to the dense sqDist of the rows.
// fuseSpan decides how many attributes starting at a one collapse
// refinement round swallows: extend while the composite key space
// g·Πcard stays within the same 4n dense ceiling a single attribute
// gets; past that the remap's memclr and cache misses outweigh the
// saved pass. Shared by collapse and the encoders that precompute the
// first round's keys, so the two always agree on the fused span.
func fuseSpan(offs []int, a, g, n, total int) (span, keys int) {
	span = 1
	keys = g * (offs[a+1] - offs[a])
	for a+span < total && keys <= 4*n {
		nc := offs[a+span+1] - offs[a+span]
		if keys*nc > 4*n {
			break
		}
		keys *= nc
		span++
	}
	return span, keys
}

func groupDist2(a, b []int32) float64 {
	d := int32(0)
	for i := range a {
		// Branchless mismatch count: (x|-x)>>31 is -1 iff x != 0. The
		// codes are data-dependent, so a compare branch mispredicts.
		x := a[i] ^ b[i]
		d -= (x | -x) >> 31
	}
	return float64(2 * d)
}

// minChunkGroups is the smallest per-goroutine slice of the assignment
// loop worth parallelizing; below 2× this the fit runs single-threaded.
const minChunkGroups = 256

// elkanMaxK bounds the per-center (Elkan) lower-bound upgrade: below it
// every group keeps k lower bounds (G×k floats) decayed by each center's
// own drift, which prunes tighter than the single Hamerly bound when
// drifts are uneven. Above it the kernel falls back to Hamerly bounds:
// the Elkan refresh pays one sqrt per center per scanned group — on the
// full-scan first iteration that is pure overhead versus Hamerly's two
// sqrts per scan, and past ~8 centers the extra pruning on later
// iterations no longer buys it back.
const elkanMaxK = 8

// boundInflate pads every bound derivation and maintenance step so the
// accumulated float rounding of sqrt, additions, and drift sums can never
// tighten a bound past its true value: upper bounds multiply by it,
// lower bounds divide. Relative rounding per maintained bound op is
// ≤ Dim·2⁻⁵², orders of magnitude inside 1e-10.
const boundInflate = 1 + 1e-10

// sparseFit carries the state of one weighted Lloyd fit. Centers are kept
// dense (k×Dim) — they are small — so the near-tie fallback and the
// returned Result are byte-compatible with the dense reference. Per
// center the fit also tracks the sorted nonzero coordinate list (for
// sparse exact distances) and a version counter; deltaState holds the
// integer-exact membership sums behind delta center updates.
type sparseFit struct {
	a, dim  int
	offs    []int
	k       int
	gs      *groupSet // groups being fitted
	n       int       // number of points behind gs
	centers []float64 // row-major k×Dim
	cNorm   []float64 // per-center squared norm, refreshed on center change
	eps     float64   // near-tie window for the exact-argmin fallback

	nz    [][]int32 // per center: sorted nonzero coordinates of the row
	epoch []int32   // per center: bumped whenever the row changes

	// Seeding byproducts: the closest seed per group with its exact
	// squared distance, and the distance to the second closest.
	// k-means++ computes every group×seed distance anyway; tracking the
	// running top-2 makes the first Lloyd assignment pass — a full k-way
	// scan everywhere else — a free read-off.
	seedOf        []int32
	seedD2, seed2 []float64
}

// dot returns Σ_a centers[c][off_a + code_a] — the inner product of the
// one-hot point codes with center c, in O(A).
func (f *sparseFit) dot(codes []int32, c int) float64 {
	base := c * f.dim
	var s float64
	for a, code := range codes {
		s += f.centers[base+f.offs[a]+int(code)]
	}
	return s
}

// distNZ computes the exact squared distance between a one-hot point and
// center c by merge-walking the point's (sorted) one-hot coordinates with
// the center's sorted nonzero coordinates, adding the surviving terms in
// ascending-coordinate order — the order the dense reference's
// Σ_d (x_d − c_d)² loop adds them. Every skipped coordinate has cd == 0
// and is not a point coordinate, so its term is exactly +0.0 — an
// identity under IEEE addition — which makes the result bit-identical to
// the dense distance in O(nnz + A) instead of O(Dim).
func (f *sparseFit) distNZ(codes []int32, c int) float64 {
	nz := f.nz[c]
	row := f.centers[c*f.dim : (c+1)*f.dim]
	var s float64
	ai, ni := 0, 0
	for ai < len(codes) && ni < len(nz) {
		pd := f.offs[ai] + int(codes[ai])
		nd := int(nz[ni])
		switch {
		case pd < nd:
			// Point coordinate with cd == 0: (1-0)² = 1.
			s += 1
			ai++
		case nd < pd:
			cd := row[nd]
			s += cd * cd
			ni++
		default:
			diff := 1 - row[nd]
			s += diff * diff
			ai++
			ni++
		}
	}
	for ; ai < len(codes); ai++ {
		s += 1
	}
	for ; ni < len(nz); ni++ {
		cd := row[int(nz[ni])]
		s += cd * cd
	}
	return s
}

// setCenterFromCodes overwrites center c with the one-hot expansion of
// the given codes (exact 0/1 coordinates).
func (f *sparseFit) setCenterFromCodes(c int, codes []int32) {
	row := f.centers[c*f.dim : (c+1)*f.dim]
	for d := range row {
		row[d] = 0
	}
	for a, code := range codes {
		row[f.offs[a]+int(code)] = 1
	}
}

// noteOneHot refreshes the per-center state after center c was
// overwritten with the one-hot expansion of codes: nonzero list, squared
// norm (exactly A ones summed in coordinate order), and version.
func (f *sparseFit) noteOneHot(c int, codes []int32) {
	nz := f.nz[c][:0]
	for a, code := range codes {
		nz = append(nz, int32(f.offs[a]+int(code)))
	}
	f.nz[c] = nz
	f.cNorm[c] = float64(len(codes))
	f.epoch[c]++
}

// seedPlusPlus is k-means++ seeding over the collapsed groups. All
// seeding distances are exact integers (centers are one-hot points), and
// the cumulative D² scan runs in original point order, so every random
// draw and every pick matches the dense reference bit for bit. The chosen
// seed code tuples are returned so the kernel can derive its per-center
// state without rescanning the dense rows, and the per-group closest seed
// and top-2 distances are stashed on f (tracking them changes no draw
// and no pick — d2 evolves identically), which is what lets lloydPruned
// skip its first assignment pass.
func (f *sparseFit) seedPlusPlus(rng *rand.Rand) [][]int32 {
	gs := f.gs
	seedCodes := make([][]int32, f.k)
	first := rng.Intn(f.n)
	seedCodes[0] = gs.rowCodes(int(gs.of[first]))
	d2 := make([]float64, gs.g)
	seedOf := make([]int32, gs.g)
	sd := make([]float64, f.k)
	seed2 := make([]float64, gs.g)
	parallel.ForChunks(gs.g, minChunkGroups, func(lo, hi int) {
		for g := lo; g < hi; g++ {
			d2[g] = groupDist2(gs.rowCodes(g), seedCodes[0])
			seed2[g] = math.Inf(1)
		}
	})
	for c := 1; c < f.k; c++ {
		// All d2 values are integers, so the weighted group sum equals
		// the dense reference's per-point sum exactly, in any order.
		var total float64
		for g, d := range d2 {
			total += d * float64(gs.weight[g])
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(f.n)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			pick = f.n - 1
			for i := 0; i < f.n; i++ {
				acc += d2[gs.of[i]]
				if acc >= target {
					pick = i
					break
				}
			}
		}
		seedCodes[c] = gs.rowCodes(int(gs.of[pick]))
		// Exact triangle-inequality skip for the update pass: with j the
		// closest previous seed of group g, d(g,c) ≥ |d(c,j) − d(g,j)|,
		// so when (√D−√g2)² already reaches the update threshold seed2
		// neither branch below can fire and the O(A) distance is
		// skipped. The test is done squared —
		// diff ≥ 0 && diff² ≥ 4·D·g2 with diff = D+g2−lim — which is
		// algebraically equivalent and, because every quantity is an
		// integer held in a float64 (lim = +Inf before a group has seen
		// two seeds simply disables the skip), introduces no rounding:
		// groups are only skipped when provably nothing would change, so
		// d2/seed2/seedOf evolve bit-identically to the full scan.
		for j := 0; j < c; j++ {
			sd[j] = groupDist2(seedCodes[c], seedCodes[j])
		}
		parallel.ForChunks(gs.g, minChunkGroups, func(lo, hi int) {
			for g := lo; g < hi; g++ {
				D, g2 := sd[seedOf[g]], d2[g]
				if diff := D + g2 - seed2[g]; diff >= 0 && diff*diff >= 4*D*g2 {
					continue
				}
				d := groupDist2(gs.rowCodes(g), seedCodes[c])
				if d < d2[g] {
					seed2[g] = d2[g]
					d2[g] = d
					seedOf[g] = int32(c)
				} else if d < seed2[g] {
					seed2[g] = d
				}
			}
		})
	}
	for c := 0; c < f.k; c++ {
		f.setCenterFromCodes(c, seedCodes[c])
	}
	f.seedOf, f.seedD2, f.seed2 = seedOf, d2, seed2
	return seedCodes
}

// assignFromSeeding is the pruned kernel's first assignment pass, read
// off the seeding byproducts instead of scanned: right after k-means++
// the centers are the seed points, every group×seed distance is an
// exact integer, and the full-scan first-pass decision reduces to the
// lowest-index argmin of those integers — near-ties in the O(A) score
// only arise from exactly equal distances (distinct integer d² differ
// by ≥ 2 ≫ eps), and both the score argmin and its exact fallback keep
// the lowest index, which is precisely what the seeding top-2 tracking
// kept. Upper/lower bounds and the exact-distance cache come from the
// same integers, so the pass costs O(G) with two sqrts per group and no
// distance work at all.
func (f *sparseFit) assignFromSeeding(assign []int32, bs *boundState) {
	parallel.ForChunks(f.gs.g, minChunkGroups, func(lo, hi int) {
		for g := lo; g < hi; g++ {
			a := f.seedOf[g]
			assign[g] = a
			ubExact := math.Sqrt(f.seedD2[g])
			bs.ub[g] = ubExact * boundInflate
			lb := math.Sqrt(f.seed2[g]) / boundInflate
			if bs.lbs != nil {
				row := bs.lbs[g*f.k : (g+1)*f.k]
				for c := range row {
					row[c] = lb
				}
				row[a] = ubExact / boundInflate
			} else {
				bs.lb[g] = lb
			}
			bs.distA[g] = f.seedD2[g]
			bs.distAE[g] = f.epoch[a]
		}
	})
}

// decideGroup runs the full k-way nearest-center decision for one group:
// the O(A) score scan, then — when two centers score within eps — the
// exact-distance fallback reproducing the dense reference's argmin and
// tie behavior. It additionally reports the second-best score (the Hamerly
// lower-bound source) and, when the fallback ran, the exact squared
// distance to the winner. scores must have length k.
func (f *sparseFit) decideGroup(codes []int32, scores []float64) (best int, bestS, secondS, exactD float64, haveExact bool) {
	best, bestS, secondS = 0, math.MaxFloat64, math.Inf(1)
	for c := 0; c < f.k; c++ {
		s := f.cNorm[c] - 2*f.dot(codes, c)
		scores[c] = s
		if s < bestS {
			secondS = bestS
			best, bestS = c, s
		} else if s < secondS {
			secondS = s
		}
	}
	limit := bestS + f.eps
	ties := 0
	for _, s := range scores {
		if s <= limit {
			ties++
		}
	}
	if ties > 1 {
		best = 0
		bestD := math.MaxFloat64
		for c := 0; c < f.k; c++ {
			if scores[c] > limit {
				continue
			}
			if d := f.distNZ(codes, c); d < bestD {
				best, bestD = c, d
			}
		}
		exactD, haveExact = bestD, true
	}
	return best, bestS, secondS, exactD, haveExact
}

// assignGroups assigns every group to its nearest center with a full
// k-way scan per group, no bounds consulted — the final pass over every
// point after a sampled or unconverged fit. The O(A) score ‖c‖² − 2·⟨x,c⟩
// orders centers like the true distance up to float rounding; when two
// centers score within eps the fallback re-evaluates the tied candidates
// with the exact distance, reproducing the dense reference's argmin
// (including its tie behavior) exactly.
func (f *sparseFit) assignGroups(assign []int32) {
	gs := f.gs
	parallel.ForChunks(gs.g, minChunkGroups, func(lo, hi int) {
		scores := make([]float64, f.k)
		for g := lo; g < hi; g++ {
			best, _, _, _, _ := f.decideGroup(gs.rowCodes(g), scores)
			assign[g] = int32(best)
		}
	})
}

// boundState carries the pruned kernel's per-group distance bounds and
// per-center drift of one Lloyd loop. ub[g] ≥ d(g, assigned center) and
// lb[g] ≤ min over other centers d(g, c) hold at all times (in the
// distance domain, with float slop absorbed by boundInflate padding);
// when k ≤ elkanMaxK, lbs[g*k+c] ≤ d(g, c) upgrades the single lower
// bound to per-center (Elkan) bounds. ub[g] < 0 marks invalid bounds
// (first pass, or after a center teleported in a reseed) and forces a
// full scan.
type boundState struct {
	ub, lb   []float64
	lbs      []float64 // per-center lower bounds, nil when k > elkanMaxK
	drift    []float64 // per center: inflated move distance of the last update
	maxOther []float64 // per center: max drift among the *other* centers

	distA  []float64 // exact d²(g, assigned) when the fallback ran
	distAE []int32   // center epoch distA was computed at; -1 = invalid
}

func newBoundState(g, k int) *boundState {
	bs := &boundState{
		ub:       make([]float64, g),
		lb:       make([]float64, g),
		drift:    make([]float64, k),
		maxOther: make([]float64, k),
		distA:    make([]float64, g),
		distAE:   make([]int32, g),
	}
	if k <= elkanMaxK {
		bs.lbs = make([]float64, g*k)
	}
	bs.invalidate()
	return bs
}

// invalidate voids every group's bounds (forcing a full scan on the next
// assignment pass) and every cached exact distance. Called once at setup
// and after reseedEmpty teleports centers, which breaks the drift-based
// bound maintenance.
func (bs *boundState) invalidate() {
	for g := range bs.ub {
		bs.ub[g] = -1
		bs.distAE[g] = -1
	}
}

// assignGroupsPruned is the bound-carrying assignment pass. Per group it
// first folds the last update's center drifts into the stored bounds
// (ub grows by the assigned center's drift, lower bounds shrink by the
// relevant drifts — the triangle inequality), then skips the k-way scan
// entirely when the bounds prove the assigned center is still the
// strict winner by a squared-distance gap larger than eps: in that case
// the full-scan decision — score argmin or exact-distance fallback,
// either of which errs by ≪ eps — provably keeps the current
// assignment, so skipping is bit-identical. Groups that cannot be
// skipped run that full-scan decision (decideGroup) and refresh
// their bounds from its scores (score + A converts to squared distance
// within eps of exact; ‖x‖² = A exactly for one-hot rows).
func (f *sparseFit) assignGroupsPruned(assign []int32, bs *boundState) bool {
	gs := f.gs
	xn := float64(f.a)
	var changed atomic.Bool
	parallel.ForChunks(gs.g, minChunkGroups, func(lo, hi int) {
		scores := make([]float64, f.k)
		chunkChanged := false
		for g := lo; g < hi; g++ {
			if ub := bs.ub[g]; ub >= 0 {
				a := int(assign[g])
				ub = (ub + bs.drift[a]) * boundInflate
				bs.ub[g] = ub
				var lb float64
				if bs.lbs != nil {
					lb = math.Inf(1)
					row := bs.lbs[g*f.k : (g+1)*f.k]
					for c := range row {
						v := (row[c] - bs.drift[c]) / boundInflate
						if v < 0 {
							v = 0
						}
						row[c] = v
						if c != a && v < lb {
							lb = v
						}
					}
				} else {
					lb = (bs.lb[g] - bs.maxOther[a]) / boundInflate
					if lb < 0 {
						lb = 0
					}
					bs.lb[g] = lb
				}
				if lb > ub && (lb-ub)*(lb+ub) > f.eps {
					continue
				}
			}
			codes := gs.rowCodes(g)
			best, bestS, secondS, exactD, haveExact := f.decideGroup(codes, scores)
			if haveExact {
				bs.ub[g] = math.Sqrt(exactD+f.eps) * boundInflate
				bs.distA[g] = exactD
				bs.distAE[g] = f.epoch[best]
			} else {
				bs.ub[g] = math.Sqrt(bestS+xn+f.eps) * boundInflate
				bs.distAE[g] = -1
			}
			if bs.lbs != nil {
				row := bs.lbs[g*f.k : (g+1)*f.k]
				for c := range row {
					v := scores[c] + xn - f.eps
					if v < 0 {
						v = 0
					}
					row[c] = math.Sqrt(v) / boundInflate
				}
			} else {
				v := secondS + xn - f.eps
				if v < 0 {
					v = 0
				}
				bs.lb[g] = math.Sqrt(v) / boundInflate
			}
			if assign[g] != int32(best) {
				assign[g] = int32(best)
				chunkChanged = true
			}
		}
		if chunkChanged {
			changed.Store(true)
		}
	})
	return changed.Load()
}

// deltaState carries the integer-exact center accumulators behind delta
// updates: sums holds, per center coordinate, the total weight of member
// groups carrying that coordinate — always an exact integer in float64 —
// and counts the member point totals. Dividing sums by counts reproduces
// the dense reference's zero-scatter-scale recomputation bit for bit,
// because float64 integer adds and subtracts below 2⁵³ are exact and
// therefore order- and history-independent.
type deltaState struct {
	sums   []float64 // k×Dim membership-weight sums
	counts []int
	prev   []int32 // previous assignment (-1 before the first update)
	dirty  []bool  // center gained/lost weight this iteration
	reseed []bool  // center was teleported by a reseed: must recompute
}

func newDeltaState(g, k, dim int) *deltaState {
	ds := &deltaState{
		sums:   make([]float64, k*dim),
		counts: make([]int, k),
		prev:   make([]int32, g),
		dirty:  make([]bool, k),
		reseed: make([]bool, k),
	}
	for i := range ds.prev {
		ds.prev[i] = -1
	}
	// Every center starts out of sync with its (empty) accumulators: the
	// dense reference rebuilds all rows each iteration, so a seeded
	// center that attracts no members on the first pass must still be
	// zeroed by the first update.
	for c := range ds.reseed {
		ds.reseed[c] = true
	}
	return ds
}

// updateCentersDelta recomputes centers from the assignment by moving
// only the weight of groups whose assignment changed, then rebuilding
// the rows of centers whose membership (or position, after a reseed)
// changed: row = sums·(1/count), the same product of the same exact
// integers the dense reference computes, so unchanged centers keep
// bitwise-identical rows without touching them. Emptied centers zero
// their rows exactly like the reference's zero-scatter pass leaves them.
// Per dirty center it also refreshes the nonzero list and squared norm
// (summed in coordinate order, skipping exact zeros — the same float as
// summing every coordinate's square) and records the center's inflated drift for
// the next bound-maintenance pass. Returns the empty centers.
func (f *sparseFit) updateCentersDelta(assign []int32, ds *deltaState, bs *boundState) []int {
	gs := f.gs
	for g := 0; g < gs.g; g++ {
		na, pa := assign[g], ds.prev[g]
		if na == pa {
			continue
		}
		w := gs.weight[g]
		fw := float64(w)
		codes := gs.rowCodes(g)
		if pa >= 0 {
			ds.counts[pa] -= w
			base := int(pa) * f.dim
			for a, code := range codes {
				ds.sums[base+f.offs[a]+int(code)] -= fw
			}
			ds.dirty[pa] = true
		}
		ds.counts[na] += w
		base := int(na) * f.dim
		for a, code := range codes {
			ds.sums[base+f.offs[a]+int(code)] += fw
		}
		ds.dirty[na] = true
		ds.prev[g] = na
	}
	var empty []int
	maxD, secD := 0.0, 0.0 // top-2 drifts for Hamerly's max-other bound
	var maxC int
	for c := 0; c < f.k; c++ {
		bs.drift[c] = 0
		if !ds.dirty[c] && !ds.reseed[c] {
			continue
		}
		ds.dirty[c], ds.reseed[c] = false, false
		row := f.centers[c*f.dim : (c+1)*f.dim]
		var driftSq, norm float64
		nz := f.nz[c][:0]
		if ds.counts[c] == 0 {
			empty = append(empty, c)
			for d := range row {
				if row[d] != 0 {
					diff := row[d]
					driftSq += diff * diff
					row[d] = 0
				}
			}
		} else {
			inv := 1 / float64(ds.counts[c])
			sums := ds.sums[c*f.dim : (c+1)*f.dim]
			for d, sd := range sums {
				nv := sd * inv
				if diff := nv - row[d]; diff != 0 {
					driftSq += diff * diff
					row[d] = nv
				}
				if nv != 0 {
					nz = append(nz, int32(d))
					norm += nv * nv
				}
			}
		}
		f.nz[c] = nz
		f.cNorm[c] = norm
		if driftSq != 0 {
			f.epoch[c]++
			bs.drift[c] = math.Sqrt(driftSq) * boundInflate
			if bs.drift[c] > maxD {
				secD, maxD, maxC = maxD, bs.drift[c], c
			} else if bs.drift[c] > secD {
				secD = bs.drift[c]
			}
		}
	}
	if bs.lbs == nil {
		for c := 0; c < f.k; c++ {
			if c == maxC {
				bs.maxOther[c] = secD
			} else {
				bs.maxOther[c] = maxD
			}
		}
	}
	return empty
}

// reseedFrom mirrors the dense reference's reseeding decision given each
// group's distance to its assigned center: empty centers move to the
// points farthest from their assigned centers, distinct points only. The
// candidate array, its deterministic sort, and every pick match the
// reference; the indices of centers actually seeded are returned.
func (f *sparseFit) reseedFrom(dg []float64, empty []int) []int {
	gs := f.gs
	type cand struct {
		idx int
		d   float64
	}
	cands := make([]cand, f.n)
	for i := 0; i < f.n; i++ {
		cands[i] = cand{i, dg[gs.of[i]]}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d > cands[b].d })
	used := 0
	var seeded []int
	for _, c := range empty {
		for used < len(cands) && used > 0 && gs.of[cands[used].idx] == gs.of[cands[used-1].idx] {
			used++
		}
		const eps = 1e-9
		if used >= len(cands) || cands[used].d <= eps {
			break
		}
		f.setCenterFromCodes(c, gs.rowCodes(int(gs.of[cands[used].idx])))
		seeded = append(seeded, c)
		used++
	}
	return seeded
}

// reseedEmptyCached re-seeds empty centers. Per group the exact
// distance to its assigned center is reused from the assignment pass's
// fallback cache whenever that center has not moved since (epoch match)
// and recomputed through the sparse nonzero walk otherwise — the same
// bits either way. Seeded centers get their one-hot state refreshed and
// are marked for a forced row recomputation on the next update (the
// dense reference rebuilds every center from scratch each iteration, so
// a reseeded center whose membership does not change must still be
// replaced by its membership mean). Teleports break drift maintenance,
// so all bounds are invalidated.
func (f *sparseFit) reseedEmptyCached(assign []int32, empty []int, ds *deltaState, bs *boundState) {
	gs := f.gs
	dg := make([]float64, gs.g)
	parallel.ForChunks(gs.g, minChunkGroups, func(lo, hi int) {
		for g := lo; g < hi; g++ {
			a := int(assign[g])
			if bs.distAE[g] >= 0 && bs.distAE[g] == f.epoch[a] {
				dg[g] = bs.distA[g]
				continue
			}
			dg[g] = f.distNZ(gs.rowCodes(g), a)
		}
	})
	seeded := f.reseedFrom(dg, empty)
	if len(seeded) == 0 {
		return
	}
	for _, c := range seeded {
		// Rebuild the one-hot codes from the row's nonzero support: the
		// row was just overwritten by setCenterFromCodes, whose nonzeros
		// are exactly the seed point's coordinates.
		nz := f.nz[c][:0]
		row := f.centers[c*f.dim : (c+1)*f.dim]
		for d, cd := range row {
			if cd != 0 {
				nz = append(nz, int32(d))
			}
		}
		f.nz[c] = nz
		f.cNorm[c] = float64(len(nz))
		f.epoch[c]++
		ds.reseed[c] = true
	}
	bs.invalidate()
}

// KMeans clusters sparse one-hot points into at most k groups: the
// production kernel behind IUnit generation. It runs weighted Lloyd over
// duplicate-collapsed points with O(A) distances instead of O(Dim),
// pruned by Hamerly/Elkan distance bounds so converged groups skip the
// k-way scan, and its Result — assignments, centers, iteration count —
// is bit-identical to textbook dense Lloyd on the equivalent
// dense one-hot encoding (the reference in dense_test.go); see DESIGN.md
// §16 for the equivalence argument.
func KMeans(sp *SparsePoints, k int, opt Options) (*Result, error) {
	return KMeansContext(context.Background(), sp, k, opt)
}

// KMeansContext is KMeans with request-lifecycle support: the fit checks
// ctx before every Lloyd iteration and aborts with ctx's error, so a
// canceled CAD View build stops clustering within one iteration instead
// of running to convergence.
func KMeansContext(ctx context.Context, sp *SparsePoints, k int, opt Options) (*Result, error) {
	if sp == nil || sp.N == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if sp.A == 0 {
		return nil, fmt.Errorf("cluster: no attributes")
	}
	if k < 1 {
		return nil, fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	if k > sp.N {
		k = sp.N
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	full := sp.collapse()
	fit, fitN := full, sp.N
	sampled := false
	if opt.SampleSize > 0 && opt.SampleSize < sp.N {
		idx := rng.Perm(sp.N)[:opt.SampleSize]
		fit = subCollapse(full, idx)
		fitN = opt.SampleSize
		sampled = true
		if k > fitN {
			k = fitN
		}
	}

	// The eps window must exceed the worst-case rounding gap between the
	// O(A) score and the dense distance (≈ Dim·ε·A); 1e-9 dominates it by
	// orders of magnitude for any realistic encoding width.
	eps := 1e-9
	if wide := float64(sp.Dim) * float64(sp.A) * 1e-14; wide > eps {
		eps = wide
	}
	f := &sparseFit{
		a: sp.A, dim: sp.Dim, offs: sp.Offsets, k: k,
		gs: fit, n: fitN,
		centers: make([]float64, k*sp.Dim),
		cNorm:   make([]float64, k),
		eps:     eps,
	}
	return f.lloydPruned(ctx, sp, full, fit, rng, k, sampled)
}

// lloydPruned is the Lloyd loop: identical decisions to textbook Lloyd
// (a full k-way scan per point, full center re-accumulation) — and
// therefore bit-identical output — reached with a fraction of the work.
// Per iteration it (1) skips the k-way scan for
// every group whose maintained distance bounds prove its assigned center
// still wins by more than the near-tie window, (2) recomputes only the
// centers whose membership changed, by moving group weights between
// integer-exact sums, and (3) reuses exact distances the assignment
// fallback already computed for reseeding. The fit ends at the loop: no
// distance is computed after it. When the loop converges on an
// unsampled fit, the final assignment pass is skipped entirely — it
// would recompute a fixed point of the very function that just reported
// no changes — and group assignments only expand to points.
func (f *sparseFit) lloydPruned(ctx context.Context, sp *SparsePoints, full, fit *groupSet, rng *rand.Rand, k int, sampled bool) (*Result, error) {
	var st StageTimes
	f.nz = make([][]int32, k)
	f.epoch = make([]int32, k)

	t := time.Now()
	seedCodes := f.seedPlusPlus(rng)
	for c, codes := range seedCodes {
		f.noteOneHot(c, codes)
	}
	st.Seed += time.Since(t)

	bs := newBoundState(fit.g, k)
	ds := newDeltaState(fit.g, k, f.dim)
	assign := make([]int32, fit.g)
	iters := 0
	converged := false
	for ; iters < maxIter; iters++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t = time.Now()
		changed := true
		if iters == 0 {
			// The first pass is a read-off of the seeding byproducts;
			// it always counts as changed, exactly like the full-scan
			// pass from the zero-initialized assignment.
			f.assignFromSeeding(assign, bs)
		} else {
			changed = f.assignGroupsPruned(assign, bs)
		}
		st.Assign += time.Since(t)
		if !changed && iters > 0 {
			converged = true
			break
		}
		t = time.Now()
		empty := f.updateCentersDelta(assign, ds, bs)
		st.Update += time.Since(t)
		if len(empty) > 0 {
			t = time.Now()
			f.reseedEmptyCached(assign, empty, ds, bs)
			st.Reseed += time.Since(t)
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t = time.Now()
	fullAssign := assign
	if !converged || sampled {
		f.gs, f.n = full, sp.N
		fullAssign = make([]int32, full.g)
		f.assignGroups(fullAssign)
	}
	finalAssign := make([]int, sp.N)
	for i, g := range full.of {
		finalAssign[i] = int(fullAssign[g])
	}
	st.Assign += time.Since(t)
	return &Result{K: k, Assign: finalAssign, Centers: f.centers, Iters: iters, Stages: st}, nil
}
