package core

import (
	"fmt"

	"dbexplorer/internal/stats"
)

// IUnitSimilarity implements the paper's Algorithm 1 (IUnit Pair
// Similarity): the sum over Compare Attribute dimensions of the cosine
// similarity between the two IUnits' value-frequency vectors. Both IUnits
// must come from CAD Views sharing the same Compare Attributes; the
// result ranges over [0, |I|].
func IUnitSimilarity(a, b *IUnit) (float64, error) {
	if a == nil || b == nil {
		return 0, fmt.Errorf("core: nil IUnit")
	}
	if len(a.freq) != len(b.freq) {
		return 0, fmt.Errorf("core: IUnits have %d and %d compare dimensions", len(a.freq), len(b.freq))
	}
	var s float64
	for d := range a.freq {
		s += stats.CosineSimilarity(a.freq[d], b.freq[d])
	}
	return s, nil
}

// AttributeValueDistance implements the paper's Algorithm 2
// (Attribute-value Pair Similarity): the rank-displacement distance
// between two pivot values' top-k IUnit lists. Two IUnits are "similar"
// when their Algorithm-1 similarity is at least tau. For each IUnit in
// one list, the matched rank in the other list is that of the similar
// IUnit with the nearest rank, or (len(other)+1) when no similar IUnit
// exists; the distance accumulates absolute rank differences in both
// directions. Lower means more similar; 0 means each IUnit aligns with a
// same-ranked similar IUnit on the other side.
func AttributeValueDistance(tx, ty []*IUnit, tau float64) (float64, error) {
	d, err := oneSidedDistance(tx, ty, tau)
	if err != nil {
		return 0, err
	}
	d2, err := oneSidedDistance(ty, tx, tau)
	if err != nil {
		return 0, err
	}
	return d + d2, nil
}

// oneSidedDistance walks list from (1-based rank i) and finds, for each
// IUnit, the closest-ranked similar IUnit in list to — lines 2-9 of
// Algorithm 2.
func oneSidedDistance(from, to []*IUnit, tau float64) (float64, error) {
	var d float64
	for i, iu := range from {
		rank := i + 1
		matched := len(to) + 1
		bestGap := -1
		for j, other := range to {
			s, err := IUnitSimilarity(iu, other)
			if err != nil {
				return 0, err
			}
			if s < tau {
				continue
			}
			gap := abs(rank - (j + 1))
			if bestGap < 0 || gap < bestGap {
				bestGap = gap
				matched = j + 1
			}
		}
		d += float64(abs(rank - matched))
	}
	return d, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
