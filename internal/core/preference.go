package core

import (
	"math"

	"dbexplorer/internal/dataview"
)

// Preference scores an IUnit for top-k ranking (paper Problem 2). Scores
// must be non-negative; higher is preferred. The paper's default prefers
// large clusters; a car shopper might prefer cheap clusters and a taxi
// fleet manager high-mileage ones — both expressible as preferences.
type Preference func(v *dataview.View, iu *IUnit) float64

// ByClusterSize is the system default preference: an IUnit summarizing
// more tuples scores higher.
func ByClusterSize(_ *dataview.View, iu *IUnit) float64 {
	return float64(iu.Size)
}

// ByMeanAscending prefers IUnits whose cluster mean of the named numeric
// attribute is low (e.g. rank cheap car clusters first). IUnits whose
// attribute is missing or non-numeric, or whose rows all lack a value,
// score 0; missing cells are left out of the mean.
func ByMeanAscending(attr string) Preference {
	return func(v *dataview.View, iu *IUnit) float64 {
		m, ok := clusterMean(v, iu, attr)
		if !ok {
			return 0
		}
		// Strictly decreasing over all reals and bounded to (0, 2): a
		// non-negative mean scores 1/(1+m) in (0, 1], a negative one
		// 2 − 1/(1−m) in (1, 2), the two meeting at 1 for m = 0.
		if m < 0 {
			return 2 - 1/(1-m)
		}
		return 1 / (1 + m)
	}
}

// ByMeanDescending prefers IUnits whose cluster mean of the named numeric
// attribute is high (the paper's taxi-fleet mileage example).
func ByMeanDescending(attr string) Preference {
	return func(v *dataview.View, iu *IUnit) float64 {
		m, ok := clusterMean(v, iu, attr)
		if !ok || m < 0 {
			return 0
		}
		return m
	}
}

// clusterMean averages the named numeric attribute over the IUnit's
// rows that carry a value; missing (NaN) cells are skipped. It reports
// false when the attribute is not numeric or no row has a value, so one
// missing cell cannot make the score NaN.
func clusterMean(v *dataview.View, iu *IUnit, attr string) (float64, bool) {
	col, err := v.Table().NumByName(attr)
	if err != nil {
		return 0, false
	}
	var s float64
	n := 0
	for _, r := range iu.Rows {
		if x := col.Value(r); !math.IsNaN(x) {
			s += x
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return s / float64(n), true
}
