package histogram

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// floatsEqualNaN compares element-wise, treating NaN as equal to NaN
// (degenerate all-NaN columns produce NaN edges on both paths).
func floatsEqualNaN(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// TestBuildCodedMatchesBuild checks the sort-free builder against the
// reference sort-based path for every method: identical edges, identical
// counts, and codes equal to a per-value Bin lookup — across duplicates,
// tie-on-edge values, few-distinct columns, tiny inputs, and the NaN
// fallback.
func TestBuildCodedMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := func(trial int) []float64 {
		n := 1 + rng.Intn(400)
		vals := make([]float64, n)
		switch trial % 5 {
		case 0: // heavy duplicates, integer-valued
			for i := range vals {
				vals[i] = float64(rng.Intn(8))
			}
		case 1: // uniform floats
			for i := range vals {
				vals[i] = rng.Float64()*1e5 - 5e4
			}
		case 2: // single distinct value
			for i := range vals {
				vals[i] = 42
			}
		case 3: // clustered with exact edge ties
			for i := range vals {
				vals[i] = float64(rng.Intn(5) * 1000)
			}
		case 4: // includes NaN and infinities
			for i := range vals {
				vals[i] = rng.NormFloat64()
			}
			vals[rng.Intn(n)] = math.NaN()
			if n > 2 {
				vals[rng.Intn(n)] = math.Inf(1)
				vals[rng.Intn(n)] = math.Inf(-1)
			}
		}
		return vals
	}
	for _, method := range []Method{EquiWidth, EquiDepth, VOptimal} {
		for trial := 0; trial < 200; trial++ {
			vals := gen(trial)
			orig := append([]float64(nil), vals...)
			bins := 1 + rng.Intn(9)
			want, err := Build(vals, bins, method)
			if err != nil {
				t.Fatalf("%v trial %d: reference build: %v", method, trial, err)
			}
			got, segCodes, err := BuildCodedSegs([][]float64{vals}, bins, method)
			if err != nil {
				t.Fatalf("%v trial %d: coded build: %v", method, trial, err)
			}
			codes := segCodes[0]
			if !floatsEqualNaN(got.Edges, want.Edges) {
				t.Fatalf("%v trial %d (bins=%d): edges = %v, want %v", method, trial, bins, got.Edges, want.Edges)
			}
			if !reflect.DeepEqual(got.Counts, want.Counts) {
				t.Fatalf("%v trial %d (bins=%d): counts = %v, want %v", method, trial, bins, got.Counts, want.Counts)
			}
			if len(codes) != len(vals) {
				t.Fatalf("%v trial %d: %d codes for %d values", method, trial, len(codes), len(vals))
			}
			for i, v := range vals {
				if int(codes[i]) != want.Bin(v) {
					t.Fatalf("%v trial %d: codes[%d] = %d, Bin(%v) = %d", method, trial, i, codes[i], v, want.Bin(v))
				}
			}
			for i := range vals {
				if vals[i] != orig[i] && !(math.IsNaN(vals[i]) && math.IsNaN(orig[i])) {
					t.Fatalf("%v trial %d: input modified at %d", method, trial, i)
				}
			}
		}
	}
}
