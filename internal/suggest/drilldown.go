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
// values OR within an attribute, attributes AND across. Everything is
// fused bitmap algebra over posting sets; no row scans.
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
		col, err := s.view.Column(a.Attr)
		if err != nil {
			return nil, err
		}
		a.Values = s.valueSuggestions(p, col, opts)
	}
	out.Attrs = ranked
	return out, nil
}

// rankAttrs scores every queriable attribute not already filtered:
// chi-square association between the attribute and membership in the
// prefix (Cramér's V), or normalized entropy when the prefix is the
// whole table. FD-determined attributes are downranked by the
// dependency's g3 error.
func (s *Suggester) rankAttrs(ctx context.Context, p *prefix) ([]AttrSuggestion, error) {
	schema := s.view.Table().Schema()
	filtered := p.total < s.base.Len()
	var out []AttrSuggestion
	for _, col := range s.view.Columns() {
		if !schema[col.Col].Queriable || p.attrs[col.Attr] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := fault.Hit(ctx, fault.PointSuggestRank); err != nil {
			return nil, err
		}
		in, freq := s.membershipCounts(p, col, filtered)
		a := AttrSuggestion{Attr: col.Attr, PValue: 1}
		if filtered {
			counts := make([][]int, len(in))
			for code := range in {
				counts[code] = []int{in[code], freq[code] - in[code]}
			}
			res, err := stats.ChiSquare(&stats.ContingencyTable{Counts: counts})
			if err == nil {
				a.Score, a.PValue = res.CramerV, res.PValue
			}
		} else {
			a.Score = normalizedEntropy(freq)
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

// membershipCounts returns, per view code of col (dictionary values or
// histogram bins), the count inside the prefix and the frequency over
// the view's snapshot — posting-set popcounts and fused intersect-
// popcounts, no row scans. Both read the view's own postings, so rows
// the table gained after the view was built never leak in.
func (s *Suggester) membershipCounts(p *prefix, col *dataview.Column, filtered bool) (in, freq []int) {
	postings := col.Postings()
	in = make([]int, len(postings))
	freq = make([]int, len(postings))
	for code, post := range postings {
		freq[code] = post.Len()
		in[code] = freq[code]
		if filtered {
			in[code] = p.bm.AndLen(post)
		}
	}
	return in, freq
}

// determinedBy reports the first prefix attribute that functionally
// determines attr (per the mined FDs under the g3 threshold), with the
// dependency's error.
func (s *Suggester) determinedBy(p *prefix, attr string) (string, float64) {
	if s.model == nil {
		return "", 0
	}
	for _, d := range s.model.deps {
		if d.Dependent == attr && d.Error <= fdMaxError && p.attrs[d.Determinant] {
			return d.Determinant, d.Error
		}
	}
	return "", 0
}

// valueSuggestions lists the attribute's refinement values under the
// prefix, count-descending. Dead-end values (zero surviving rows) are
// pruned unless opts.IncludeDeadEnds, in which case they trail the list
// flagged. Numeric attributes surface histogram-bin labels.
func (s *Suggester) valueSuggestions(p *prefix, col *dataview.Column, opts Options) []ValueSuggestion {
	in, _ := s.membershipCounts(p, col, p.total < s.base.Len())
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
