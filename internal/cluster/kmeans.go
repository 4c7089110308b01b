// Package cluster implements the clustering substrate for candidate
// IUnit generation (paper Problem 1.2): Lloyd's k-means with k-means++
// seeding over one-hot encodings of the Compare Attributes (matching the
// paper's use of Weka's SimpleKMeans on discretized data) and optional
// center-fitting on a sample (§6.3 optimizations).
//
// There is one production kernel: KMeans over EncodeSparse points, a
// sparse, weighted, duplicate-collapsing Lloyd pruned by Hamerly/Elkan
// distance bounds (sparse.go), with SilhouetteSparse as its quality
// score. Its Results are bit-identical to textbook dense k-means over
// the expanded one-hot matrix; that dense reference (kernel, encoder and
// silhouette) lives in dense_test.go, shares no code with the kernel,
// and is what the equivalence suites compare against.
package cluster

import "time"

// Encoding maps table rows to one-hot coordinates so cluster centroids
// can be decoded back into per-attribute value frequencies.
type Encoding struct {
	// Attrs are the encoded attribute names, in encoding order.
	Attrs []string
	// Offsets[a] is the first coordinate of attribute a's block; the
	// block width is the attribute's cardinality. A final sentinel entry
	// holds the total dimension.
	Offsets []int
	// Cards[a] is the cardinality of attribute a.
	Cards []int
}

// Options configures KMeans.
type Options struct {
	// Seed drives k-means++ seeding and sampling.
	Seed int64
	// SampleSize, when > 0 and smaller than the point count, fits
	// centers on that many sampled points and then assigns all points
	// to the fitted centers — §6.3 Optimization 1.
	SampleSize int
}

// maxIter bounds the Lloyd iterations of one fit.
const maxIter = 50

// StageTimes splits a k-means fit's wall time across the Lloyd phases:
// k-means++ seeding, assignment passes (including the final full-point
// pass, or the expansion of group assignments to points), center
// updates, and empty-center reseeding.
type StageTimes struct {
	Seed   time.Duration `json:"seed"`
	Assign time.Duration `json:"assign"`
	Update time.Duration `json:"update"`
	Reseed time.Duration `json:"reseed"`
}

// Add accumulates o into s.
func (s *StageTimes) Add(o StageTimes) {
	s.Seed += o.Seed
	s.Assign += o.Assign
	s.Update += o.Update
	s.Reseed += o.Reseed
}

// Stages returns the named phase durations in report order, so EXPLAIN
// and metrics layers can export the breakdown without knowing the
// struct's fields (mirroring core.Timings.Stages).
func (s StageTimes) Stages() []struct {
	Name string
	D    time.Duration
} {
	return []struct {
		Name string
		D    time.Duration
	}{
		{"seed", s.Seed},
		{"assign", s.Assign},
		{"update", s.Update},
		{"reseed", s.Reseed},
	}
}

// Result is a fitted k-means clustering.
type Result struct {
	// K is the number of centers actually used (≤ requested when there
	// are fewer points than centers).
	K int
	// Assign[i] is the center index of point i.
	Assign []int
	// Centers is row-major K×Dim.
	Centers []float64
	// Iters is the number of Lloyd iterations executed.
	Iters int
	// Stages breaks the fit's wall time into Lloyd phases.
	Stages StageTimes
}
