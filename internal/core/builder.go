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
	// Preference scores IUnits for top-k ranking (default ByClusterSize).
	Preference Preference
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
}

// significance is the chi-square p-value cut for automatically selected
// Compare Attributes (§3.1.1).
const significance = 0.05

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
	if c.Preference == nil {
		c.Preference = ByClusterSize
	}
	return c
}

// Timings decomposes CAD View construction time the way Figure 8 reports
// it: posting-index warm-up, Compare Attribute selection, IUnit
// generation (clustering), and everything else (labeling, ranking,
// top-k, similarity). Index is the one-off cost of building the posting
// bitmaps the build consumes; it lands on the first build over
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

// BuildContext is BuildBitmap over a row set. Every row must lie in the
// view's row snapshot [0, v.Rows()); the rows are read as a set, so order
// and duplicates do not matter. Packing them into a bitmap counts toward
// the Index stage.
func BuildContext(ctx context.Context, v *dataview.View, rows dataset.RowSet, cfg Config) (*CADView, Timings, error) {
	start := time.Now()
	n := v.Rows()
	for _, r := range rows {
		if r < 0 || r >= n {
			return nil, Timings{}, fmt.Errorf("core: result row %d is outside the view's %d rows", r, n)
		}
	}
	bm := rows.Bitmap(n)
	pack := time.Since(start)
	view, tm, err := BuildBitmap(ctx, v, bm, cfg)
	tm.Index += pack
	return view, tm, err
}

// BuildBitmap constructs a CAD View over the result set bm of v's table
// (paper Problem 1). bm's universe must be the view's row snapshot
// v.Rows(); the build reads bm and never modifies it. It returns the view
// together with its construction timing decomposition. The build has
// cancellation checkpoints in every expensive stage — the
// feature-selection contingency sweep, each k-means Lloyd iteration, the
// diversified top-k expansion, and between pivot rows — so when ctx is
// canceled or its deadline passes the build stops promptly and returns
// ctx's error.
func BuildBitmap(ctx context.Context, v *dataview.View, bm *dataset.Bitmap, cfg Config) (*CADView, Timings, error) {
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
	if bm.Universe() != v.Rows() {
		return nil, tm, fmt.Errorf("core: result bitmap spans %d rows, the view %d", bm.Universe(), v.Rows())
	}
	if bm.Len() == 0 {
		return nil, tm, fmt.Errorf("core: empty result set")
	}

	// Warm the pivot's posting sets first, so their one-off construction
	// is attributed to the Index stage instead of smeared over feature
	// selection. On a warm view this stage is ~0. No other stage needs
	// postings: feature selection and clustering sweep the result's rows
	// over cached code slices, so narrow results over wide tables never
	// pay for a posting build.
	start := time.Now()
	pivotCol.Postings()
	tm.Index = time.Since(start)

	// Resolve pivot values and their row subsets.
	pivotValues, bmByValue, err := resolvePivotValuesBitmap(pivotCol, bm, cfg.PivotValues)
	if err != nil {
		return nil, tm, err
	}

	// Problem 1.1: Compare Attribute selection over the rows that carry
	// the selected pivot values. With default (all-present) pivot values
	// the union of the per-value posting intersections is exactly the
	// result set.
	bmV := bm
	if len(cfg.PivotValues) > 0 {
		bmV = dataset.NewBitmap(bm.Universe())
		for _, b := range bmByValue {
			bmV.OrWith(b)
		}
	}
	if bmV.Len() == 0 {
		return nil, tm, fmt.Errorf("core: no result rows carry the selected pivot values")
	}
	start = time.Now()
	compareAttrs, err := selectCompareAttrsBitmap(ctx, v, bmV, cfg)
	tm.CompareSelect = time.Since(start)
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
	for vi, val := range pivotValues {
		view.Rows = append(view.Rows, &PivotRow{Value: val, Count: bmByValue[vi].Len()})
	}
	if cfg.Parallel {
		errs := make([]error, len(pivotValues))
		times := make([]Timings, len(pivotValues))
		parallel.Do(len(pivotValues), func(vi int) {
			errs[vi] = buildPivotRow(ctx, v, view, view.Rows[vi], bmByValue[vi], cfg, int64(vi), &times[vi])
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
			if err := buildPivotRow(ctx, v, view, view.Rows[vi], bmByValue[vi], cfg, int64(vi), &tm); err != nil {
				return nil, tm, err
			}
		}
	}
	return view, tm, nil
}

// buildPivotRow runs Problems 1.2 and 2 for one pivot value over that
// value's result rows: encode, cluster (with the fixed-l or auto-l
// policy), label, score, and keep the diversified top-k. Timing
// accumulates into tm.
func buildPivotRow(ctx context.Context, v *dataview.View, view *CADView, row *PivotRow, rowsVal *dataset.Bitmap, cfg Config, valIndex int64, tm *Timings) error {
	if rowsVal.Len() == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	startCluster := time.Now()
	points, _, err := cluster.EncodeSparse(v, rowsVal, view.CompareAttrs)
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
// over the plausible l range [K, max(L, 2K+2)]. The returned StageTimes sums the
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

// applyScores appends chi-square ranked attributes to chosen up to the
// MaxCompare budget. An attribute is kept when its p-value passes the
// significance cut, or when its p-value is 1 (a degenerate table, or a
// statistic too small to move it) but its statistic is positive. When
// nothing passes — e.g. a single pivot value, where no attribute can
// contrast classes — the view still needs attributes to cluster and
// label on, so it falls back to the top-ranked candidates.
func applyScores(chosen []string, scores []featsel.Score, cfg Config) []string {
	for _, s := range scores {
		if len(chosen) == cfg.MaxCompare {
			break
		}
		if s.PValue < 1 {
			if s.PValue > significance {
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

// selectCompareAttrsBitmap applies the paper's Compare Attribute policy
// over the result-set bitmap: explicitly selected attributes first, then
// chi-square ranked ones that pass the significance threshold, up to
// MaxCompare total. The contingency sweep runs over the result's rows,
// or, with feature sampling, over a systematic sample drawn straight off
// the bitmap.
func selectCompareAttrsBitmap(ctx context.Context, v *dataview.View, bmV *dataset.Bitmap, cfg Config) ([]string, error) {
	chosen, candidates, err := explicitCompareAttrs(v, cfg)
	if err != nil || len(candidates) == 0 {
		return chosen, err
	}
	var rankRows dataset.RowSet
	if cfg.FeatureSampleSize > 0 && cfg.FeatureSampleSize < bmV.Len() {
		rankRows = sampleRowsBitmap(bmV, cfg.FeatureSampleSize, cfg.Seed)
	} else {
		rankRows = bmV.ToRowSet()
	}
	scores, err := featsel.ChiSquareContext(ctx, v, rankRows, cfg.Pivot, candidates)
	if err != nil {
		return nil, err
	}
	return applyScores(chosen, scores, cfg), nil
}

// sampleRowsBitmap takes a deterministic systematic sample of exactly
// min(size, |bm|) of bm's rows: evenly spaced positions into the
// ascending row order, rotated by a seed-derived offset and wrapping
// around the end (a plain strided scan from a nonzero offset runs off
// the end and under-fills the sample — the wrap keeps both the size and
// the uniform spacing). It draws straight from the bitmap without
// materializing the full row set: the sampled positions are sorted once
// and filled in a single bitmap pass, with each pick landing at its
// original sequence slot, so the output is in wraparound order —
// position for position what the row-slice sampler in the tests
// (sampleRows) returns.
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

// resolvePivotValuesBitmap returns the pivot rows' display order and,
// aligned with it, each value's result rows: the intersection of the
// value's posting set with the result bitmap. Explicit values are
// validated against the column domain; the default order is every value
// that occurs, count descending, label ascending — a total order, so it
// is reproducible bit for bit.
func resolvePivotValuesBitmap(pivotCol *dataview.Column, bm *dataset.Bitmap, explicit []string) ([]string, []*dataset.Bitmap, error) {
	posts := pivotCol.Postings()
	if len(explicit) > 0 {
		seen := make(map[string]bool)
		var values []string
		var bms []*dataset.Bitmap
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
			bms = append(bms, posts[code].And(bm))
		}
		return values, bms, nil
	}

	// Intersect every code concurrently — each writes its own slot — and
	// keep the values that occur.
	all := make([]*dataset.Bitmap, len(posts))
	parallel.Do(len(posts), func(code int) { all[code] = posts[code].And(bm) })
	type vc struct {
		val   string
		count int
		bm    *dataset.Bitmap
	}
	var ranked []vc
	for code, b := range all {
		if n := b.Len(); n > 0 {
			ranked = append(ranked, vc{pivotCol.Label(code), n, b})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count > ranked[j].count
		}
		return ranked[i].val < ranked[j].val
	})
	values := make([]string, len(ranked))
	bms := make([]*dataset.Bitmap, len(ranked))
	for i, r := range ranked {
		values[i], bms[i] = r.val, r.bm
	}
	return values, bms, nil
}

// makeIUnits converts the clustering of one pivot value's rows into
// labeled candidate IUnits; point i of the clustering is rowsVal's i-th
// row in ascending order. Label frequency tables come from the sparse
// points' duplicate-collapsed groups — weight[g] rows at a time — rather
// than re-reading every member row per Compare Attribute; the counts are
// the same integers either way (groups share codes and, by construction
// of the k-means result, cluster assignment).
func makeIUnits(v *dataview.View, pivotValue string, rowsVal *dataset.Bitmap, km *cluster.Result, points *cluster.SparsePoints, compareAttrs []string, cfg Config) ([]*IUnit, error) {
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
	i := 0
	rowsVal.ForEach(func(r int) {
		a := km.Assign[i]
		members[a] = append(members[a], r)
		i++
	})
	countsBy := points.CodeCountsByCluster(km.Assign, km.K)
	var out []*IUnit
	for c, rows := range members {
		if len(rows) == 0 {
			continue
		}
		labels, freqs, err := labelsFromCounts(v, compareAttrs, countsBy[c], len(rows))
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
