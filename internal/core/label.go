package core

import "dbexplorer/internal/dataview"

// LabelOptions controls cluster labeling (§3.1.2): how many
// representative values an IUnit shows per Compare Attribute and when
// values are grouped into one bracket because their frequency counts are
// statistically indistinguishable.
type LabelOptions struct {
	// MaxValues bounds the total values displayed per label (the
	// paper's "max display count"; default 4).
	MaxValues int
	// MaxGroups bounds the number of bracketed groups (default 2).
	MaxGroups int
	// GroupTolerance is the maximum relative frequency difference for
	// two values to share a bracket (default 0.2: counts within 20% of
	// the group leader group together).
	GroupTolerance float64
	// MinSupport drops values covering less than this fraction of the
	// cluster (default 0.15), so rare stragglers don't pollute labels.
	MinSupport float64
}

func (o LabelOptions) withDefaults() LabelOptions {
	if o.MaxValues <= 0 {
		o.MaxValues = 4
	}
	if o.MaxGroups <= 0 {
		o.MaxGroups = 2
	}
	if o.GroupTolerance <= 0 {
		o.GroupTolerance = 0.2
	}
	if o.MinSupport <= 0 {
		o.MinSupport = 0.15
	}
	return o
}

// labelsFromCounts summarizes a cluster from precomputed per-attribute
// code frequency tables — the form the build derives from collapsed
// cluster groups without re-reading member rows: for each Compare
// Attribute it produces the ranked, grouped representative values and
// the full code-frequency vector that Algorithm 1 similarity consumes.
// counts[d] must be sized to attribute d's cardinality and sum to
// clusterSize.
func labelsFromCounts(v *dataview.View, compareAttrs []string, counts [][]int, clusterSize int, opt LabelOptions) ([]Label, [][]float64, error) {
	opt = opt.withDefaults()
	labels := make([]Label, len(compareAttrs))
	freqs := make([][]float64, len(compareAttrs))
	for d, attr := range compareAttrs {
		col, err := v.Column(attr)
		if err != nil {
			return nil, nil, err
		}
		freq := make([]float64, len(counts[d]))
		for i, c := range counts[d] {
			freq[i] = float64(c)
		}
		freqs[d] = freq
		labels[d] = Label{Attr: attr, Groups: groupValues(col, counts[d], clusterSize, opt)}
	}
	return labels, freqs, nil
}

// groupValues ranks values by in-cluster frequency and packs them into
// bracketed groups of statistically similar counts.
func groupValues(col *dataview.Column, counts []int, clusterSize int, opt LabelOptions) []LabelGroup {
	type vc struct {
		code  int
		count int
	}
	// Cardinalities are small post-binning; a fixed buffer keeps the
	// ranking off the heap for every cluster × pivot value × attribute.
	var rankBuf [24]vc
	ranked := rankBuf[:0]
	if len(counts) > len(rankBuf) {
		ranked = make([]vc, 0, len(counts))
	}
	for code, c := range counts {
		if c > 0 {
			ranked = append(ranked, vc{code, c})
		}
	}
	// Count descending, label ascending — a total order (labels are
	// unique per code), sorted by insertion: ranked is at most one entry
	// per code of one attribute, and sort.Slice's closure allocation was
	// measurable across clusters × pivot values × attributes.
	for i := 1; i < len(ranked); i++ {
		v := ranked[i]
		j := i - 1
		for j >= 0 && (ranked[j].count < v.count ||
			(ranked[j].count == v.count && col.Label(v.code) < col.Label(ranked[j].code))) {
			ranked[j+1] = ranked[j]
			j--
		}
		ranked[j+1] = v
	}

	minCount := opt.MinSupport * float64(clusterSize)
	var groups []LabelGroup
	shown := 0
	for _, r := range ranked {
		if shown >= opt.MaxValues {
			break
		}
		// Always show the dominant value; apply the support cut to the
		// rest so a cluster never renders an empty label.
		if shown > 0 && float64(r.count) < minCount {
			break
		}
		if len(groups) > 0 {
			leader := groups[len(groups)-1].Count
			if float64(leader-r.count) <= opt.GroupTolerance*float64(leader) {
				g := &groups[len(groups)-1]
				g.Values = append(g.Values, col.Label(r.code))
				shown++
				continue
			}
		}
		if len(groups) >= opt.MaxGroups {
			break
		}
		groups = append(groups, LabelGroup{Values: []string{col.Label(r.code)}, Count: r.count})
		shown++
	}
	return groups
}
