package core

import "dbexplorer/internal/dataview"

// Label construction constants (§3.1.2): how many representative values
// an IUnit shows per Compare Attribute, and when values share one bracket
// because their frequency counts are statistically indistinguishable.
const (
	// labelMaxValues bounds the total values displayed per label (the
	// paper's "max display count").
	labelMaxValues = 4
	// labelMaxGroups bounds the number of bracketed groups.
	labelMaxGroups = 2
	// labelGroupTolerance is the maximum relative frequency difference
	// for two values to share a bracket: counts within 20% of the group
	// leader group together.
	labelGroupTolerance = 0.2
	// labelMinSupport drops values covering less than this fraction of
	// the cluster, so rare stragglers don't pollute labels.
	labelMinSupport = 0.15
)

// labelsFromCounts summarizes a cluster from precomputed per-attribute
// code frequency tables — the form the build derives from collapsed
// cluster groups without re-reading member rows: for each Compare
// Attribute it produces the ranked, grouped representative values and
// the full code-frequency vector that Algorithm 1 similarity consumes.
// counts[d] must be sized to attribute d's cardinality and sum to
// clusterSize.
func labelsFromCounts(v *dataview.View, compareAttrs []string, counts [][]int, clusterSize int) ([]Label, [][]float64, error) {
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
		labels[d] = Label{Attr: attr, Groups: groupValues(col, counts[d], clusterSize)}
	}
	return labels, freqs, nil
}

// groupValues ranks values by in-cluster frequency and packs them into
// bracketed groups of statistically similar counts.
func groupValues(col *dataview.Column, counts []int, clusterSize int) []LabelGroup {
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

	minCount := labelMinSupport * float64(clusterSize)
	var groups []LabelGroup
	shown := 0
	for _, r := range ranked {
		if shown >= labelMaxValues {
			break
		}
		// Always show the dominant value; apply the support cut to the
		// rest so a cluster never renders an empty label.
		if shown > 0 && float64(r.count) < minCount {
			break
		}
		if len(groups) > 0 {
			leader := groups[len(groups)-1].Count
			if float64(leader-r.count) <= labelGroupTolerance*float64(leader) {
				g := &groups[len(groups)-1]
				g.Values = append(g.Values, col.Label(r.code))
				shown++
				continue
			}
		}
		if len(groups) >= labelMaxGroups {
			break
		}
		groups = append(groups, LabelGroup{Values: []string{col.Label(r.code)}, Count: r.count})
		shown++
	}
	return groups
}
