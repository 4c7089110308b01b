package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"dbexplorer/internal/cluster"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/fault"
	"dbexplorer/internal/featsel"
	"dbexplorer/internal/parallel"
	"dbexplorer/internal/topk"
)

// Config parameterizes CAD View construction. Zero values take the
// defaults the paper uses in its examples and experiments.
type Config struct {
	// Pivot is the Pivot Attribute (required).
	Pivot string
	// PivotValues optionally restricts and orders the pivot rows (the
	// SQL example's five Makes). Empty means every value present in the
	// result set, by descending frequency.
	PivotValues []string
	// CompareAttrs are Compare Attributes the user selected explicitly
	// (the CREATE CADVIEW SELECT list); the builder fills the remaining
	// MaxCompare-N slots automatically.
	CompareAttrs []string
	// MaxCompare is M, the total Compare Attribute budget imposed by
	// screen width (LIMIT COLUMNS; default 5).
	MaxCompare int
	// K is the number of IUnits kept per pivot value (IUNITS; default 3).
	K int
	// L is the number of candidate IUnits generated before diversified
	// top-k selection (default ceil(1.5·K), the paper's system tuning
	// suggestion).
	L int
	// Alpha sets the IUnit similarity threshold τ = Alpha·|I|
	// (default 0.7).
	Alpha float64
	// Significance is the chi-square p-value cut for automatically
	// selected Compare Attributes (default 0.05).
	Significance float64
	// Preference scores IUnits for top-k ranking (default ByClusterSize).
	Preference Preference
	// Ranker selects Compare Attributes (default
	// featsel.ChiSquareContext). Rankers receive the build's context and
	// are expected to honor its cancellation.
	Ranker featsel.Ranker
	// Seed makes clustering deterministic.
	Seed int64
	// FeatureSampleSize, when > 0, ranks Compare Attributes on at most
	// that many rows (§6.3 Optimization 1).
	FeatureSampleSize int
	// ClusterSampleSize, when > 0, fits cluster centers on at most that
	// many rows per pivot value (§6.3 Optimization 1).
	ClusterSampleSize int
	// GreedyTopK swaps the exact diversified top-k search for the
	// greedy heuristic the paper warns about — an ablation knob only.
	GreedyTopK bool
	// AutoL, when set, chooses the number of generated IUnits per pivot
	// value by sweeping plausible l values (K .. 2K+2) and keeping the
	// clustering with the best silhouette — the paper's §2.2.2
	// alternative to the fixed l = 1.5K rule. L is then the sweep's
	// upper bound when explicitly set.
	AutoL bool
	// Parallel builds the pivot rows concurrently on a worker pool
	// bounded by GOMAXPROCS, so high-cardinality pivots never spawn one
	// goroutine (and one encoding) per value at a time. The result is
	// identical to the sequential build (all randomness is seeded per
	// pivot value); only wall-clock changes.
	Parallel bool
	// Path selects the build implementation. PathAuto (the default) runs
	// the posting-bitmap pipeline with per-stage cost dispatch; PathScan
	// forces the row-at-a-time reference path; PathBitmap forces bitmap
	// algebra even where a scan would be cheaper. All three produce
	// byte-identical CAD Views — the knob exists for equivalence tests
	// and benchmarks.
	Path BuildPath
	// Labeling controls cluster label construction.
	Labeling LabelOptions

	// defaultRanker records whether Ranker was left nil and filled by
	// withDefaults — only then may the bitmap path substitute the
	// contingency sweep's bitmap form for the ranker call.
	defaultRanker bool
}

// BuildPath selects between the bitmap-native build pipeline and the
// row-scan reference implementation.
type BuildPath int

const (
	// PathAuto uses posting bitmaps with per-candidate cost dispatch.
	PathAuto BuildPath = iota
	// PathScan forces the row-at-a-time reference pipeline.
	PathScan
	// PathBitmap forces bitmap algebra in every stage.
	PathBitmap
)

func (c Config) withDefaults() Config {
	if c.MaxCompare <= 0 {
		c.MaxCompare = 5
	}
	if c.K <= 0 {
		c.K = 3
	}
	if c.L <= 0 {
		c.L = int(math.Ceil(1.5 * float64(c.K)))
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.7
	}
	if c.Significance <= 0 {
		c.Significance = 0.05
	}
	if c.Preference == nil {
		c.Preference = ByClusterSize
	}
	if c.Ranker == nil {
		c.Ranker = featsel.ChiSquareContext
		c.defaultRanker = true
	}
	return c
}

// Timings decomposes CAD View construction time the way Figure 8 reports
// it: posting-index warm-up, Compare Attribute selection, IUnit
// generation (clustering), and everything else (labeling, ranking,
// top-k, similarity). Index is the one-off cost of building the posting
// bitmaps the bitmap pipeline consumes; it lands on the first build over
// a table and is ~0 afterwards. Keeping it as its own stage stops that
// warm-up from being misattributed to feature selection in EXPLAIN and
// diagnostics.
type Timings struct {
	Index         time.Duration
	CompareSelect time.Duration
	Cluster       time.Duration
	Other         time.Duration

	// ClusterDetail splits the k-means portion of the Cluster stage into
	// Lloyd phases (seed / assign / update / reseed), so the next
	// clustering bottleneck is visible in EXPLAIN and /debug/metrics
	// without a profiler. It is a sub-breakdown of Cluster, not a fifth
	// stage: it does not enter Total(), and the gap between Cluster and
	// its sum is the one-hot encoding cost.
	ClusterDetail cluster.StageTimes
}

// Total returns the end-to-end construction time.
func (t Timings) Total() time.Duration {
	return t.Index + t.CompareSelect + t.Cluster + t.Other
}

// Stages returns the named stage durations in report order, so metrics
// layers can export the Figure-8 decomposition without knowing the
// struct's fields.
func (t Timings) Stages() []struct {
	Name string
	D    time.Duration
} {
	return []struct {
		Name string
		D    time.Duration
	}{
		{"index", t.Index},
		{"compare_select", t.CompareSelect},
		{"cluster", t.Cluster},
		{"other", t.Other},
	}
}

// Build constructs a CAD View over the result set rows of v's table
// (paper Problem 1) — BuildContext without cancellation.
func Build(v *dataview.View, rows dataset.RowSet, cfg Config) (*CADView, Timings, error) {
	return BuildContext(context.Background(), v, rows, cfg)
}

// BuildContext constructs a CAD View over the result set rows of v's
// table (paper Problem 1). It returns the view together with its
// construction timing decomposition. The build has cancellation
// checkpoints in every expensive stage — the feature-selection
// contingency sweep, each k-means Lloyd iteration, the diversified top-k
// expansion, and between pivot rows — so when ctx is canceled or its
// deadline passes the build stops promptly and returns ctx's error.
func BuildContext(ctx context.Context, v *dataview.View, rows dataset.RowSet, cfg Config) (*CADView, Timings, error) {
	var tm Timings
	if err := fault.Hit(ctx, fault.PointCoreBuild); err != nil {
		return nil, tm, err
	}
	cfg = cfg.withDefaults()
	if cfg.Pivot == "" {
		return nil, tm, fmt.Errorf("core: no pivot attribute")
	}
	pivotCol, err := v.Column(cfg.Pivot)
	if err != nil {
		return nil, tm, err
	}
	if len(rows) == 0 {
		return nil, tm, fmt.Errorf("core: empty result set")
	}

	// The bitmap pipeline enters bitmap algebra once at the top: pack the
	// result set and warm every column's posting sets, so the one-off
	// posting construction is attributed to the Index stage instead of
	// smeared over feature selection. On a warm table this stage is the
	// cost of packing one bitmap.
	useBitmap := cfg.Path != PathScan
	var bm *dataset.Bitmap
	if useBitmap {
		start := time.Now()
		bm = rows.Bitmap(v.Rows())
		warmPivotPostings(v, cfg.Pivot)
		tm.Index = time.Since(start)
	}

	// Resolve pivot values and their row subsets.
	var (
		pivotValues []string
		rowsByValue map[string]dataset.RowSet
		bmByValue   map[string]*dataset.Bitmap
	)
	if useBitmap {
		pivotValues, rowsByValue, bmByValue, err = resolvePivotValuesBitmap(pivotCol, bm, cfg.PivotValues)
	} else {
		pivotValues, rowsByValue, err = resolvePivotValues(v, pivotCol, rows, cfg.PivotValues)
	}
	if err != nil {
		return nil, tm, err
	}

	// Problem 1.1: Compare Attribute selection over the rows that carry
	// the selected pivot values.
	var compareAttrs []string
	if useBitmap {
		// With default (all-present) pivot values the union of the
		// per-value posting intersections is exactly the result set.
		bmV := bm
		if len(cfg.PivotValues) > 0 {
			bmV = dataset.NewBitmap(bm.Universe())
			for _, val := range pivotValues {
				if b := bmByValue[val]; b != nil {
					bmV.OrWith(b)
				}
			}
		}
		if bmV.Len() == 0 {
			return nil, tm, fmt.Errorf("core: no result rows carry the selected pivot values")
		}
		start := time.Now()
		compareAttrs, err = selectCompareAttrsBitmap(ctx, v, bmV, cfg)
		tm.CompareSelect = time.Since(start)
	} else {
		rowsV := make(dataset.RowSet, 0, len(rows))
		for _, val := range pivotValues {
			rowsV = append(rowsV, rowsByValue[val]...)
		}
		sort.Ints(rowsV)
		if len(rowsV) == 0 {
			return nil, tm, fmt.Errorf("core: no result rows carry the selected pivot values")
		}
		start := time.Now()
		compareAttrs, err = selectCompareAttrs(ctx, v, rowsV, cfg)
		tm.CompareSelect = time.Since(start)
	}
	if err != nil {
		return nil, tm, err
	}
	if len(compareAttrs) == 0 {
		return nil, tm, fmt.Errorf("core: no Compare Attributes available for pivot %q", cfg.Pivot)
	}

	view := &CADView{
		Pivot:        cfg.Pivot,
		CompareAttrs: compareAttrs,
		K:            cfg.K,
		Tau:          cfg.Alpha * float64(len(compareAttrs)),
	}

	// Problems 1.2 and 2 per pivot value: cluster, label, diversify.
	for _, val := range pivotValues {
		view.Rows = append(view.Rows, &PivotRow{Value: val, Count: len(rowsByValue[val])})
	}
	bmFor := func(val string) *dataset.Bitmap {
		if bmByValue == nil {
			return nil
		}
		return bmByValue[val]
	}
	if cfg.Parallel {
		errs := make([]error, len(pivotValues))
		times := make([]Timings, len(pivotValues))
		parallel.Do(len(pivotValues), func(vi int) {
			val := view.Rows[vi].Value
			errs[vi] = buildPivotRow(ctx, v, view, view.Rows[vi], rowsByValue[val], bmFor(val), cfg, int64(vi), &times[vi])
		})
		for vi := range pivotValues {
			if errs[vi] != nil {
				return nil, tm, errs[vi]
			}
			tm.Cluster += times[vi].Cluster
			tm.Other += times[vi].Other
			tm.ClusterDetail.Add(times[vi].ClusterDetail)
		}
	} else {
		for vi := range pivotValues {
			val := view.Rows[vi].Value
			if err := buildPivotRow(ctx, v, view, view.Rows[vi], rowsByValue[val], bmFor(val), cfg, int64(vi), &tm); err != nil {
				return nil, tm, err
			}
		}
	}
	return view, tm, nil
}

// buildPivotRow runs Problems 1.2 and 2 for one pivot value: encode,
// cluster (with the fixed-l or auto-l policy), label, score, and keep
// the diversified top-k. Timing accumulates into tm. Encoding always
// uses the per-row scan unless PathBitmap forces the posting-scatter
// encoder: the scan does one cached segmented code load per (row,
// attribute) cell, while the scatter pays a closure call plus a rank
// lookup per cell on top of the posting AND — profiling shows the scan
// wins across pivot-value selectivities, and the two encoders produce
// identical code matrices, so this is purely a time dispatch.
func buildPivotRow(ctx context.Context, v *dataview.View, view *CADView, row *PivotRow, rowsVal dataset.RowSet, bmVal *dataset.Bitmap, cfg Config, valIndex int64, tm *Timings) error {
	if len(rowsVal) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	startCluster := time.Now()
	var points *cluster.SparsePoints
	var err error
	if bmVal != nil && cfg.Path == PathBitmap {
		points, _, err = cluster.EncodeSparseBitmap(v, bmVal, view.CompareAttrs)
	} else {
		points, _, err = cluster.EncodeSparse(v, rowsVal, view.CompareAttrs)
	}
	if err != nil {
		return err
	}
	km, st, err := fitClusters(ctx, points, cfg, cfg.Seed+valIndex)
	tm.Cluster += time.Since(startCluster)
	tm.ClusterDetail.Add(st)
	if err != nil {
		return err
	}

	startOther := time.Now()
	candidates, err := makeIUnits(v, row.Value, rowsVal, km, points, view.CompareAttrs, cfg)
	if err != nil {
		return err
	}
	kept, err := diversify(ctx, candidates, view.Tau, cfg.K, cfg.GreedyTopK)
	if err != nil {
		return err
	}
	for rank, iu := range kept {
		iu.Rank = rank + 1
	}
	row.IUnits = kept
	tm.Other += time.Since(startOther)
	return nil
}

// fitClusters produces the candidate-IUnit clustering: either a single
// k-means run at l = cfg.L, or — with AutoL — the best-silhouette run
// over the plausible l range [K, max(L, 2K+2)]. The sparse kernel's
// results are bit-identical to the dense kernel's, so the CAD View is
// unchanged from the dense-path build. The returned StageTimes sums the
// Lloyd-phase wall time of every fit performed (all l values under
// AutoL), feeding the Timings.ClusterDetail breakdown.
func fitClusters(ctx context.Context, points *cluster.SparsePoints, cfg Config, seed int64) (*cluster.Result, cluster.StageTimes, error) {
	var st cluster.StageTimes
	opts := cluster.Options{Seed: seed, SampleSize: cfg.ClusterSampleSize}
	if !cfg.AutoL {
		km, err := cluster.KMeansContext(ctx, points, cfg.L, opts)
		if err != nil {
			return nil, st, err
		}
		st.Add(km.Stages)
		return km, st, nil
	}
	hi := 2*cfg.K + 2
	if cfg.L > hi {
		hi = cfg.L
	}
	var best *cluster.Result
	bestScore := 0.0
	for l := cfg.K; l <= hi; l++ {
		km, err := cluster.KMeansContext(ctx, points, l, opts)
		if err != nil {
			return nil, st, err
		}
		st.Add(km.Stages)
		score, err := cluster.SilhouetteSparse(points, km.Assign, km.K, 256, seed)
		if err != nil {
			return nil, st, err
		}
		if best == nil || score > bestScore {
			best = km
			bestScore = score
		}
	}
	return best, st, nil
}

// resolvePivotValues returns the pivot rows' display order and each
// value's row subset. Explicit values are validated against the column
// domain; the default order is descending result-set frequency.
func resolvePivotValues(v *dataview.View, pivotCol *dataview.Column, rows dataset.RowSet, explicit []string) ([]string, map[string]dataset.RowSet, error) {
	byCode := partitionRowsByCode(pivotCol, rows)
	rowsByValue := make(map[string]dataset.RowSet)

	if len(explicit) > 0 {
		seen := make(map[string]bool)
		var values []string
		for _, val := range explicit {
			if seen[val] {
				continue
			}
			seen[val] = true
			code := pivotCol.CodeOf(val)
			if code < 0 {
				return nil, nil, fmt.Errorf("core: pivot attribute %q has no value %q", pivotCol.Attr, val)
			}
			values = append(values, val)
			rowsByValue[val] = byCode[code]
		}
		return values, rowsByValue, nil
	}

	type vc struct {
		val   string
		count int
	}
	var ranked []vc
	for code, rs := range byCode {
		ranked = append(ranked, vc{pivotCol.Label(code), len(rs)})
		rowsByValue[pivotCol.Label(code)] = rs
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count > ranked[j].count
		}
		return ranked[i].val < ranked[j].val
	})
	values := make([]string, len(ranked))
	for i, r := range ranked {
		values[i] = r.val
	}
	return values, rowsByValue, nil
}

// pivotPartitionMin is the result-set size below which the pivot
// partition runs serially; smaller sets don't amortize the per-segment
// map merge.
const pivotPartitionMin = 1 << 15

// partitionRowsByCode groups a sorted row set by pivot code, one morsel
// per storage segment: each segment's rows partition into a local map
// with the segment's code slice hoisted out of the loop, and per-code
// slices then concatenate in segment order. Over an ascending row set
// that reproduces the serial append order exactly, so the per-value
// subsequences are bit-identical to a single sequential sweep.
func partitionRowsByCode(pivotCol *dataview.Column, rows dataset.RowSet) map[int]dataset.RowSet {
	byCode := make(map[int]dataset.RowSet)
	if len(rows) == 0 {
		return byCode
	}
	segs := pivotCol.CodeSegs()
	first := rows[0] >> dataset.SegmentBits
	nSpan := rows[len(rows)-1]>>dataset.SegmentBits - first + 1
	if nSpan <= 1 || len(rows) < pivotPartitionMin {
		for _, r := range rows {
			c := int(segs[r>>dataset.SegmentBits][r&dataset.SegmentMask])
			// NaN pivot cells code -1: they belong to no pivot value,
			// exactly as in the bitmap variant, whose postings never
			// contain NaN rows.
			if c >= 0 {
				byCode[c] = append(byCode[c], r)
			}
		}
		return byCode
	}
	locals := make([]map[int]dataset.RowSet, nSpan)
	parallel.Do(nSpan, func(k int) {
		span := rows.SegmentSpan(first + k)
		if len(span) == 0 {
			return
		}
		seg := segs[first+k]
		m := make(map[int]dataset.RowSet, 16)
		for _, r := range span {
			c := int(seg[r&dataset.SegmentMask])
			if c >= 0 {
				m[c] = append(m[c], r)
			}
		}
		locals[k] = m
	})
	for _, m := range locals {
		for c, rs := range m {
			byCode[c] = append(byCode[c], rs...)
		}
	}
	return byCode
}

// explicitCompareAttrs validates the user's explicit Compare Attributes
// and enumerates the remaining automatic candidates. A nil candidate
// slice means selection is already complete (budget filled, or nothing
// left to rank) and chosen is the final answer.
func explicitCompareAttrs(v *dataview.View, cfg Config) (chosen, candidates []string, err error) {
	chosen = make([]string, 0, cfg.MaxCompare)
	seen := map[string]bool{cfg.Pivot: true}
	for _, attr := range cfg.CompareAttrs {
		if attr == cfg.Pivot {
			return nil, nil, fmt.Errorf("core: pivot attribute %q cannot be a Compare Attribute", attr)
		}
		if seen[attr] {
			continue
		}
		if _, err := v.Column(attr); err != nil {
			return nil, nil, err
		}
		seen[attr] = true
		chosen = append(chosen, attr)
	}
	if len(chosen) > cfg.MaxCompare {
		return nil, nil, fmt.Errorf("core: %d explicit Compare Attributes exceed LIMIT COLUMNS %d", len(chosen), cfg.MaxCompare)
	}
	if len(chosen) == cfg.MaxCompare {
		return chosen, nil, nil
	}
	for _, col := range v.Columns() {
		if !seen[col.Attr] {
			candidates = append(candidates, col.Attr)
		}
	}
	return chosen, candidates, nil
}

// applyScores appends ranked attributes to chosen up to the MaxCompare
// budget: rankers with a significance test (chi-square) are cut at the
// configured level, score-only rankers require positive weight. When
// nothing passes the cut — e.g. a single pivot value, where no attribute
// can contrast classes — the view still needs attributes to cluster and
// label on, so it falls back to the ranker's top candidates.
func applyScores(chosen []string, scores []featsel.Score, cfg Config) []string {
	for _, s := range scores {
		if len(chosen) == cfg.MaxCompare {
			break
		}
		if s.PValue < 1 {
			if s.PValue > cfg.Significance {
				continue
			}
		} else if s.Stat <= 0 {
			continue
		}
		chosen = append(chosen, s.Attr)
	}
	if len(chosen) == 0 {
		for _, s := range scores {
			if len(chosen) == cfg.MaxCompare {
				break
			}
			chosen = append(chosen, s.Attr)
		}
	}
	return chosen
}

// selectCompareAttrs applies the paper's Compare Attribute policy:
// explicitly selected attributes first, then automatically ranked ones
// that pass the significance threshold, up to MaxCompare total.
func selectCompareAttrs(ctx context.Context, v *dataview.View, rowsV dataset.RowSet, cfg Config) ([]string, error) {
	chosen, candidates, err := explicitCompareAttrs(v, cfg)
	if err != nil || len(candidates) == 0 {
		return chosen, err
	}
	rankRows := rowsV
	if cfg.FeatureSampleSize > 0 && cfg.FeatureSampleSize < len(rankRows) {
		rankRows = sampleRows(rankRows, cfg.FeatureSampleSize, cfg.Seed)
	}
	scores, err := cfg.Ranker(ctx, v, rankRows, cfg.Pivot, candidates)
	if err != nil {
		return nil, err
	}
	return applyScores(chosen, scores, cfg), nil
}

// selectCompareAttrsBitmap is selectCompareAttrs fed by the result-set
// bitmap. With the default chi-square ranker and no sampling, the
// contingency sweep runs in its bitmap form (intersect-popcount against
// the class postings) without materializing a row set at all; feature
// sampling draws the systematic sample straight off the bitmap; a custom
// ranker sees exactly the row set the scan path would have passed it.
func selectCompareAttrsBitmap(ctx context.Context, v *dataview.View, bmV *dataset.Bitmap, cfg Config) ([]string, error) {
	chosen, candidates, err := explicitCompareAttrs(v, cfg)
	if err != nil || len(candidates) == 0 {
		return chosen, err
	}
	nV := bmV.Len()
	var scores []featsel.Score
	switch {
	case cfg.FeatureSampleSize > 0 && cfg.FeatureSampleSize < nV:
		rankRows := sampleRowsBitmap(bmV, cfg.FeatureSampleSize, cfg.Seed)
		scores, err = cfg.Ranker(ctx, v, rankRows, cfg.Pivot, candidates)
	case cfg.defaultRanker:
		forceBitmap := cfg.Path == PathBitmap
		scores, err = featsel.ChiSquareBitmapContext(ctx, v, bmV, cfg.Pivot, candidates, forceBitmap)
	default:
		scores, err = cfg.Ranker(ctx, v, bmV.ToRowSet(), cfg.Pivot, candidates)
	}
	if err != nil {
		return nil, err
	}
	return applyScores(chosen, scores, cfg), nil
}

// sampleRows takes a deterministic systematic sample of exactly
// min(size, len(rows)) rows: evenly spaced positions rotated by a
// seed-derived offset, wrapping around the end of the slice. (A plain
// strided scan from a nonzero offset runs off the end and under-fills
// the sample — the wrap keeps both the size and the uniform spacing.)
func sampleRows(rows dataset.RowSet, size int, seed int64) dataset.RowSet {
	n := len(rows)
	if size >= n {
		return append(dataset.RowSet(nil), rows...)
	}
	offset := int(seed % int64(n))
	if offset < 0 {
		offset += n
	}
	out := make(dataset.RowSet, 0, size)
	for j := 0; j < size; j++ {
		out = append(out, rows[(offset+j*n/size)%n])
	}
	return out
}

// sampleRowsBitmap draws the same systematic sample as sampleRows —
// position for position, including the wraparound order — directly from
// the bitmap, without materializing the full row set first. The sampled
// positions are ranks into the bitmap's ascending rows; they are sorted
// once and filled in a single bitmap pass, with each pick landing at its
// original sequence slot so the output order matches sampleRows exactly.
func sampleRowsBitmap(bm *dataset.Bitmap, size int, seed int64) dataset.RowSet {
	n := bm.Len()
	if size >= n {
		return bm.ToRowSet()
	}
	offset := int(seed % int64(n))
	if offset < 0 {
		offset += n
	}
	type pick struct{ pos, slot int }
	wanted := make([]pick, size)
	for j := 0; j < size; j++ {
		wanted[j] = pick{(offset + j*n/size) % n, j}
	}
	sort.Slice(wanted, func(a, b int) bool { return wanted[a].pos < wanted[b].pos })
	out := make(dataset.RowSet, size)
	i, rank := 0, 0
	bm.ForEach(func(r int) {
		for i < size && wanted[i].pos == rank {
			out[wanted[i].slot] = r
			i++
		}
		rank++
	})
	return out
}

// resolvePivotValuesBitmap is resolvePivotValues driven by the pivot
// column's posting sets: each pivot code's result-set rows are the
// intersection of its posting bitmap with the result bitmap, counted by
// fused popcount and materialized (ascending, exactly the scan path's
// per-value subsequences) only for values that actually occur. The
// default display order — count descending, label ascending — is a total
// order, so it matches the scan path's sort bit for bit.
func resolvePivotValuesBitmap(pivotCol *dataview.Column, bm *dataset.Bitmap, explicit []string) ([]string, map[string]dataset.RowSet, map[string]*dataset.Bitmap, error) {
	posts := pivotCol.Postings()
	rowsByValue := make(map[string]dataset.RowSet)
	bmByValue := make(map[string]*dataset.Bitmap)
	materialize := func(val string, code int) {
		b := posts[code].And(bm)
		if b.Len() == 0 {
			return
		}
		rs := make(dataset.RowSet, 0, b.Len())
		b.ForEach(func(r int) { rs = append(rs, r) })
		rowsByValue[val] = rs
		bmByValue[val] = b
	}

	if len(explicit) > 0 {
		seen := make(map[string]bool)
		var values []string
		for _, val := range explicit {
			if seen[val] {
				continue
			}
			seen[val] = true
			code := pivotCol.CodeOf(val)
			if code < 0 {
				return nil, nil, nil, fmt.Errorf("core: pivot attribute %q has no value %q", pivotCol.Attr, val)
			}
			values = append(values, val)
			materialize(val, code)
		}
		return values, rowsByValue, bmByValue, nil
	}

	// Count every code first (cheap fused popcounts), then materialize
	// the surviving values' intersections concurrently — each writes its
	// own slot, and the maps are assembled after the pool drains.
	type vc struct {
		code  int
		val   string
		count int
	}
	counts := make([]int, len(posts))
	parallel.Do(len(posts), func(code int) { counts[code] = posts[code].AndLen(bm) })
	var ranked []vc
	for code, n := range counts {
		if n > 0 {
			ranked = append(ranked, vc{code, pivotCol.Label(code), n})
		}
	}
	bms := make([]*dataset.Bitmap, len(ranked))
	rss := make([]dataset.RowSet, len(ranked))
	parallel.Do(len(ranked), func(i int) {
		b := posts[ranked[i].code].And(bm)
		bms[i] = b
		rss[i] = b.ToRowSet()
	})
	for i, r := range ranked {
		rowsByValue[r.val] = rss[i]
		bmByValue[r.val] = bms[i]
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count > ranked[j].count
		}
		return ranked[i].val < ranked[j].val
	})
	values := make([]string, len(ranked))
	for i, r := range ranked {
		values[i] = r.val
	}
	return values, rowsByValue, bmByValue, nil
}

// warmPivotPostings materializes the pivot column's posting sets before
// the partition so their construction cost lands in the Index timing
// stage; on a warm view every call after the first is a no-op. Only the
// pivot warms eagerly — every other posting set builds lazily behind a
// per-stage cost dispatch (featsel's per-candidate split), so narrow
// results over wide tables never pay for postings no stage ends up
// using.
func warmPivotPostings(v *dataview.View, pivot string) {
	if c, err := v.Column(pivot); err == nil {
		c.Postings()
	}
}

// makeIUnits converts the clustering of one pivot value's rows into
// labeled candidate IUnits. Label frequency tables come from the sparse
// points' duplicate-collapsed groups — weight[g] rows at a time — rather
// than re-reading every member row per Compare Attribute; the counts are
// the same integers either way (groups share codes and, by construction
// of the k-means result, cluster assignment).
func makeIUnits(v *dataview.View, pivotValue string, rowsVal dataset.RowSet, km *cluster.Result, points *cluster.SparsePoints, compareAttrs []string, cfg Config) ([]*IUnit, error) {
	// Partition rows by cluster into one exactly-sized backing array —
	// per-cluster appends would reallocate log-many times per cluster on
	// every pivot value. Full slice expressions keep a later append on one
	// member set from clobbering its neighbor.
	sizes := make([]int, km.K)
	for _, a := range km.Assign {
		sizes[a]++
	}
	buf := make(dataset.RowSet, len(km.Assign))
	members := make([]dataset.RowSet, km.K)
	off := 0
	for c, s := range sizes {
		members[c] = buf[off : off : off+s]
		off += s
	}
	for i, a := range km.Assign {
		members[a] = append(members[a], rowsVal[i])
	}
	countsBy := points.CodeCountsByCluster(km.Assign, km.K)
	var out []*IUnit
	for c, rows := range members {
		if len(rows) == 0 {
			continue
		}
		labels, freqs, err := labelsFromCounts(v, compareAttrs, countsBy[c], len(rows), cfg.Labeling)
		if err != nil {
			return nil, err
		}
		iu := &IUnit{
			PivotValue: pivotValue,
			Size:       len(rows),
			Labels:     labels,
			Rows:       rows,
			freq:       freqs,
		}
		iu.Score = cfg.Preference(v, iu)
		if iu.Score < 0 {
			return nil, fmt.Errorf("core: preference returned negative score %g", iu.Score)
		}
		out = append(out, iu)
	}
	return out, nil
}

// diversify runs Problem 2: diversified top-k over the candidate IUnits
// with Algorithm-1 similarity and threshold tau.
func diversify(ctx context.Context, candidates []*IUnit, tau float64, k int, greedy bool) ([]*IUnit, error) {
	if len(candidates) == 0 {
		return nil, nil
	}
	scores := make([]float64, len(candidates))
	for i, iu := range candidates {
		scores[i] = iu.Score
	}
	sims := make([][]float64, len(candidates))
	for i := range sims {
		sims[i] = make([]float64, len(candidates))
	}
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			s, err := IUnitSimilarity(candidates[i], candidates[j])
			if err != nil {
				return nil, err
			}
			sims[i][j] = s
			sims[j][i] = s
		}
	}
	conflicts := topk.NewConflicts(len(candidates), func(i, j int) bool {
		return sims[i][j] >= tau
	})
	selector := topk.Selector(topk.ExactContext)
	if greedy {
		selector = topk.GreedyContext
	}
	sel, err := selector(ctx, scores, conflicts, k)
	if err != nil {
		return nil, err
	}
	out := make([]*IUnit, len(sel))
	for i, idx := range sel {
		out[i] = candidates[idx]
	}
	return out, nil
}
