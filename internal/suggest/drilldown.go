package suggest

import (
	"context"
	"math"
	"sort"

	"dbexplorer/internal/dataview"
	"dbexplorer/internal/fault"
	"dbexplorer/internal/stats"
)

// ValueSuggestion is one refinement value under a recommended
// attribute, with its surviving row count under the current filters.
type ValueSuggestion struct {
	Value string `json:"value"`
	Count int    `json:"count"`
	// DeadEnd flags values whose selection yields zero rows.
	DeadEnd bool `json:"deadEnd,omitempty"`
}

// AttrSuggestion is one recommended next facet: the attribute, its
// discriminative score against the current result set, and its top
// refinement values.
type AttrSuggestion struct {
	Attr string `json:"attr"`
	// Score is Cramér's V of the attribute against membership in the
	// current result set (normalized entropy when no filters are
	// active) — higher means splitting on this attribute tells the user
	// more about what distinguishes their selection.
	Score float64 `json:"score"`
	// PValue is the chi-square significance of that association (1 when
	// entropy ranking was used).
	PValue float64 `json:"pValue"`
	// DeterminedBy names a selected attribute that functionally
	// determines this one, when the model found such a dependency —
	// drilling here would mostly echo an existing filter, so the score
	// is scaled down by the dependency's g3 error.
	DeterminedBy string            `json:"determinedBy,omitempty"`
	Values       []ValueSuggestion `json:"values"`

	counts []int // rows of the result per view code, for Values
}

// DrillDown is the guided-navigation answer for one filter set.
type DrillDown struct {
	// Total is the surviving row count under the filters.
	Total int `json:"total"`
	// DeadEnd reports the filter set itself selects zero rows.
	DeadEnd bool `json:"deadEnd"`
	// Attrs are the recommended refinements, best-first.
	Attrs []AttrSuggestion `json:"attrs"`
	// Degraded reports the model was unavailable (no FD downranking or
	// conditional interest).
	Degraded bool `json:"degraded,omitempty"`
}

// Drill recommends the next facet refinements for a filter set: which
// unselected attributes discriminate the current result set most, and
// which of their values remain reachable. Facet semantics apply —
// values OR within an attribute, attributes AND across. Every value
// count comes from the one dataview.Tally call that ranks the
// attributes.
func (s *Suggester) Drill(ctx context.Context, sels []Selection, opts Options) (*DrillDown, error) {
	p, err := s.selectionPrefix(sels)
	if err != nil {
		return nil, err
	}
	out := &DrillDown{Total: p.total, DeadEnd: p.total == 0, Degraded: s.Degraded()}
	if out.DeadEnd {
		return out, nil
	}
	ranked, err := s.rankAttrs(ctx, p)
	if err != nil {
		return nil, err
	}
	if limit := opts.limit(); len(ranked) > limit {
		ranked = ranked[:limit]
	}
	for i := range ranked {
		a := &ranked[i]
		col, _ := s.view.Column(a.Attr) // rankAttrs ranks the view's own columns
		a.Values = valueSuggestions(col, a.counts, opts)
	}
	out.Attrs = ranked
	return out, nil
}

// rankAttrs scores every queriable attribute not already filtered:
// chi-square association between the attribute and membership in the
// prefix (Cramér's V), or normalized entropy when the prefix is the
// whole table. FD-determined attributes are downranked by the
// dependency's g3 error. One dataview.Tally call counts every candidate
// under the prefix, and one more over the view's rows when it filters.
func (s *Suggester) rankAttrs(ctx context.Context, p *prefix) ([]AttrSuggestion, error) {
	schema := s.view.Table().Schema()
	var cols []*dataview.Column
	for _, col := range s.view.Columns() {
		if schema[col.Col].Queriable && !p.attrs[col.Attr] {
			cols = append(cols, col)
		}
	}
	in := dataview.Tally(p.bm, cols)
	freq, filtered := in, p.total < s.base.Len()
	if filtered {
		freq = dataview.Tally(s.base, cols)
	}
	var out []AttrSuggestion
	for i, col := range cols {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := fault.Hit(ctx, fault.PointSuggestRank); err != nil {
			return nil, err
		}
		a := AttrSuggestion{Attr: col.Attr, PValue: 1, counts: in[i]}
		if filtered {
			counts := make([][]int, len(in[i]))
			for code, n := range in[i] {
				counts[code] = []int{n, freq[i][code] - n}
			}
			res, err := stats.ChiSquare(&stats.ContingencyTable{Counts: counts})
			if err == nil {
				a.Score, a.PValue = res.CramerV, res.PValue
			}
		} else {
			a.Score = normalizedEntropy(freq[i])
		}
		if det, g3 := s.determinedBy(p, col.Attr); det != "" {
			a.DeterminedBy = det
			a.Score *= math.Max(g3, 1e-3)
		}
		out = append(out, a)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Attr < out[j].Attr
	})
	return out, nil
}

// determinedBy reports the first prefix attribute that functionally
// determines attr (fd.DiscoverPairs mines only dependencies under its
// g3 threshold), with the dependency's error.
func (s *Suggester) determinedBy(p *prefix, attr string) (string, float64) {
	if s.model == nil {
		return "", 0
	}
	for _, d := range s.model.deps {
		if d.Dependent == attr && p.attrs[d.Determinant] {
			return d.Determinant, d.Error
		}
	}
	return "", 0
}

// valueSuggestions lists the attribute's refinement values from their
// counts under the prefix, count-descending. Dead-end values (zero
// surviving rows) are pruned unless opts.IncludeDeadEnds, in which case
// they trail the list flagged. Numeric attributes surface histogram-bin
// labels.
func valueSuggestions(col *dataview.Column, in []int, opts Options) []ValueSuggestion {
	vals := make([]ValueSuggestion, 0, len(in))
	for code, n := range in {
		vals = append(vals, ValueSuggestion{Value: col.Label(code), Count: n, DeadEnd: n == 0})
	}
	if !opts.IncludeDeadEnds {
		live := vals[:0]
		for _, v := range vals {
			if !v.DeadEnd {
				live = append(live, v)
			}
		}
		vals = live
	}
	sort.SliceStable(vals, func(i, j int) bool {
		if vals[i].Count != vals[j].Count {
			return vals[i].Count > vals[j].Count
		}
		return vals[i].Value < vals[j].Value
	})
	if max := opts.maxValues(); len(vals) > max {
		vals = vals[:max]
	}
	return vals
}

// normalizedEntropy scores a value distribution in [0,1]: 1 when mass
// spreads evenly over its buckets, 0 when concentrated in one. Used to
// rank attributes before any filter is active.
func normalizedEntropy(freq []int) float64 {
	total, buckets := 0, 0
	for _, f := range freq {
		if f > 0 {
			total += f
			buckets++
		}
	}
	if buckets <= 1 || total == 0 {
		return 0
	}
	h := 0.0
	for _, f := range freq {
		if f <= 0 {
			continue
		}
		pr := float64(f) / float64(total)
		h -= pr * math.Log(pr)
	}
	return h / math.Log(float64(buckets))
}
