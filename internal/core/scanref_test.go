package core

import (
	"context"
	"fmt"
	"sort"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/featsel"
)

// The row-scan reference build: the row-at-a-time semantics the
// production (posting-bitmap) build in builder.go must reproduce bit for
// bit. It partitions the result set by a per-row pivot code loop, ranks
// Compare Attributes with featsel.ChiSquareContext over a row set (the
// row-scan contingency fill), samples with the row-slice sampler, and
// then runs the shared buildPivotRow per pivot value. Only tests use it.

// scanBuild builds the CAD View of cfg over rows the row-scan way.
func scanBuild(ctx context.Context, v *dataview.View, rows dataset.RowSet, cfg Config) (*CADView, error) {
	cfg = cfg.withDefaults()
	pivotCol, err := v.Column(cfg.Pivot)
	if err != nil {
		return nil, err
	}
	pivotValues, rowsByValue, err := resolvePivotValues(pivotCol, rows, cfg.PivotValues)
	if err != nil {
		return nil, err
	}
	rowsV := make(dataset.RowSet, 0, len(rows))
	for _, val := range pivotValues {
		rowsV = append(rowsV, rowsByValue[val]...)
	}
	sort.Ints(rowsV)
	if len(rowsV) == 0 {
		return nil, fmt.Errorf("core: no result rows carry the selected pivot values")
	}
	compareAttrs, err := selectCompareAttrs(ctx, v, rowsV, cfg)
	if err != nil {
		return nil, err
	}
	if len(compareAttrs) == 0 {
		return nil, fmt.Errorf("core: no Compare Attributes available for pivot %q", cfg.Pivot)
	}
	view := &CADView{
		Pivot:        cfg.Pivot,
		CompareAttrs: compareAttrs,
		K:            cfg.K,
		Tau:          cfg.Alpha * float64(len(compareAttrs)),
	}
	for _, val := range pivotValues {
		view.Rows = append(view.Rows, &PivotRow{Value: val, Count: len(rowsByValue[val])})
	}
	var tm Timings
	for vi, row := range view.Rows {
		if err := buildPivotRow(ctx, v, view, row, rowsByValue[row.Value].Bitmap(v.Rows()), cfg, int64(vi), &tm); err != nil {
			return nil, err
		}
	}
	return view, nil
}

// resolvePivotValues returns the pivot rows' display order and each
// value's row subset by one pass over the result rows. Explicit values
// are validated against the column domain; the default order is
// descending result-set frequency, ties by label.
func resolvePivotValues(pivotCol *dataview.Column, rows dataset.RowSet, explicit []string) ([]string, map[string]dataset.RowSet, error) {
	byCode := make(map[int]dataset.RowSet)
	for _, r := range rows {
		// NaN pivot cells code -1: they belong to no pivot value.
		if c := pivotCol.Code(r); c >= 0 {
			byCode[c] = append(byCode[c], r)
		}
	}
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

// selectCompareAttrs applies the paper's Compare Attribute policy over
// a row set: explicitly selected attributes first, then automatically
// ranked ones that pass the significance threshold, up to MaxCompare.
func selectCompareAttrs(ctx context.Context, v *dataview.View, rowsV dataset.RowSet, cfg Config) ([]string, error) {
	chosen, candidates, err := explicitCompareAttrs(v, cfg)
	if err != nil || len(candidates) == 0 {
		return chosen, err
	}
	rankRows := rowsV
	if cfg.FeatureSampleSize > 0 && cfg.FeatureSampleSize < len(rankRows) {
		rankRows = sampleRows(rankRows, cfg.FeatureSampleSize, cfg.Seed)
	}
	scores, err := featsel.ChiSquareContext(ctx, v, rankRows, cfg.Pivot, candidates)
	if err != nil {
		return nil, err
	}
	return applyScores(chosen, scores, cfg), nil
}

// sampleRows takes a deterministic systematic sample of exactly
// min(size, len(rows)) rows: evenly spaced positions rotated by a
// seed-derived offset, wrapping around the end of the slice.
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
