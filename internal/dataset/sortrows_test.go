package dataset

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestSortRowsByValueMatchesComparator pins the segment-key radix sort
// (sortSegKeys over the keys the index builds) to the comparator it
// replaced: value ascending, ties by row ascending — over duplicates,
// negatives, infinities, and the -0/+0 equality trap, on both sides of
// the small-slice cutoff.
func TestSortRowsByValueMatchesComparator(t *testing.T) {
	pool := []float64{
		0, math.Copysign(0, -1), 1, -1, 2.5, -2.5, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), 42, 42, 3.14,
	}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 1 + rng.Intn(600)
		vals := make([]float64, n)
		for i := range vals {
			if rng.Intn(3) == 0 {
				vals[i] = pool[rng.Intn(len(pool))]
			} else {
				vals[i] = math.Round(rng.NormFloat64()*100) / 4
			}
		}
		keys := make([]uint64, n)
		want := make([]int32, n)
		for i := range keys {
			keys[i] = orderedFloatBits(vals[i])&^0xFFFF | uint64(i)
			want[i] = int32(i)
		}
		sort.Slice(want, func(i, j int) bool {
			vi, vj := vals[want[i]], vals[want[j]]
			if vi != vj {
				return vi < vj
			}
			return want[i] < want[j]
		})
		got := make([]int32, n)
		for i, k := range sortSegKeys(keys, vals) {
			got[i] = int32(uint16(k))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d): radix order diverges from comparator\n got %v\nwant %v", trial, n, got, want)
		}
	}
	sortSegKeys(nil, nil) // empty input must not panic
}
