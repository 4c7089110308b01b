// Package fd discovers attribute interactions in the forms the paper's
// related work catalogs (§7): functional dependencies, approximate
// ("soft") functional dependencies, and correlated attribute pairs in
// the style of CORDS (Ilyas et al. [16]). These interaction reports are
// another data summary exploratory users can read alongside the CAD
// View ("Model determines Make"; "Engine correlates with FuelEconomy").
package fd

import (
	"fmt"
	"sort"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/stats"
)

// Dependency is one discovered X → Y dependency.
type Dependency struct {
	// Determinant and Dependent name the attributes: Determinant → Dependent.
	Determinant, Dependent string
	// Error is the g3 measure: the minimum fraction of rows that must
	// be removed for the dependency to hold exactly. 0 means an exact
	// functional dependency.
	Error float64
}

// Exact reports whether the dependency holds with no violating rows.
func (d Dependency) Exact() bool { return d.Error == 0 }

// String renders "X -> Y (g3=...)".
func (d Dependency) String() string {
	if d.Exact() {
		return fmt.Sprintf("%s -> %s", d.Determinant, d.Dependent)
	}
	return fmt.Sprintf("%s -> %s (g3=%.4f)", d.Determinant, d.Dependent, d.Error)
}

// G3 computes the g3 error of X → Y over rows: for each X value keep the
// most common Y value and count everything else as violations.
func G3(v *dataview.View, rows dataset.RowSet, x, y string) (float64, error) {
	if _, err := v.Column(x); err != nil {
		return 0, err
	}
	if _, err := v.Column(y); err != nil {
		return 0, err
	}
	if x == y {
		return 0, fmt.Errorf("fd: determinant and dependent are both %q", x)
	}
	if len(rows) == 0 {
		return 0, fmt.Errorf("fd: empty row set")
	}
	pc, err := v.CountPairs(rows, []string{x, y})
	if err != nil {
		return 0, err
	}
	g3, _ := g3Pair(pc.Joint(0, 1))
	return g3, nil
}

// g3Pair returns the g3 errors of A → B and B → A from one joint table:
// A → B keeps each A code's largest cell (the row maxima), B → A each B
// code's (the column maxima). Cells with a NaN side are not in the
// table, so they join no group and cannot violate.
func g3Pair(jt *dataview.Joint) (ab, ba float64) {
	labeled, keptAB, keptBA := 0, 0, 0
	colMax := make([]int32, jt.BCard)
	for a := 0; a < jt.ACard(); a++ {
		codes, counts := jt.Row(a)
		best := int32(0)
		for k, c := range counts {
			labeled += int(c)
			best = max(best, c)
			colMax[codes[k]] = max(colMax[codes[k]], c)
		}
		keptAB += int(best)
	}
	if labeled == 0 {
		return 0, 0
	}
	for _, c := range colMax {
		keptBA += int(c)
	}
	return 1 - float64(keptAB)/float64(labeled), 1 - float64(keptBA)/float64(labeled)
}

// Discovery thresholds. MaxError is the g3 error at or below which a
// dependency is reported. A determinant needs at least
// minDeterminantCard live values: a constant column "determines"
// everything vacuously. It may hold at most maxDeterminantFraction·|rows|
// live values: a key or near-key column determines everything trivially.
const (
	MaxError               = 0.05
	minDeterminantCard     = 2
	maxDeterminantFraction = 0.5
)

// Discover finds single-attribute (approximate) functional dependencies
// X → Y with a g3 error of at most MaxError among the given attributes
// over rows, sorted by ascending error then by name.
func Discover(v *dataview.View, rows dataset.RowSet, attrs []string) ([]Dependency, error) {
	if len(attrs) < 2 {
		return nil, fmt.Errorf("fd: need at least 2 attributes, got %d", len(attrs))
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("fd: empty row set")
	}
	pc, err := v.CountPairs(rows, attrs)
	if err != nil {
		return nil, err
	}
	return DiscoverPairs(pc), nil
}

// DiscoverPairs is Discover over an existing pairwise sweep, so one
// sweep can feed several miners. Both directions of a pair come from
// the same joint table.
func DiscoverPairs(pc *dataview.PairCounts) []Dependency {
	// Live cardinalities: NaN cells are no live value.
	live := make([]int, len(pc.Cols))
	for i := range live {
		for _, c := range pc.Marginal(i) {
			if c > 0 {
				live[i]++
			}
		}
	}
	var out []Dependency
	report := func(x, y int, g3 float64) {
		switch {
		case live[x] < minDeterminantCard,
			float64(live[x]) > maxDeterminantFraction*float64(pc.Rows),
			live[y] < 2,
			pc.Cols[x].Attr == pc.Cols[y].Attr,
			g3 > MaxError:
			return
		}
		out = append(out, Dependency{Determinant: pc.Cols[x].Attr, Dependent: pc.Cols[y].Attr, Error: g3})
	}
	for i := range pc.Cols {
		for j := i + 1; j < len(pc.Cols); j++ {
			ij, ji := g3Pair(pc.Joint(i, j))
			report(i, j, ij)
			report(j, i, ji)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Error != out[j].Error {
			return out[i].Error < out[j].Error
		}
		if out[i].Determinant != out[j].Determinant {
			return out[i].Determinant < out[j].Determinant
		}
		return out[i].Dependent < out[j].Dependent
	})
	return out
}

// Correlation is a CORDS-style correlated attribute pair.
type Correlation struct {
	A, B string
	// CramerV is the chi-square effect size in [0, 1].
	CramerV float64
	// PValue is the chi-square independence test significance.
	PValue float64
}

// Correlation thresholds: a pair is reported when its chi-square test
// rejects independence at corrSignificance with a Cramér's V of at least
// corrMinEffect.
const (
	corrSignificance = 0.01
	corrMinEffect    = 0.1
)

// Correlations finds attribute pairs whose chi-square test rejects
// independence at corrSignificance with an effect size of at least
// corrMinEffect, sorted by descending effect size. This is the
// sampling-free core of CORDS.
func Correlations(v *dataview.View, rows dataset.RowSet, attrs []string) ([]Correlation, error) {
	if len(attrs) < 2 {
		return nil, fmt.Errorf("fd: need at least 2 attributes, got %d", len(attrs))
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("fd: empty row set")
	}
	pc, err := v.CountPairs(rows, attrs)
	if err != nil {
		return nil, err
	}
	var out []Correlation
	for i := 0; i < len(attrs); i++ {
		for j := i + 1; j < len(attrs); j++ {
			jt := pc.Joint(i, j)
			ct := stats.NewContingencyTable(jt.ACard(), jt.BCard)
			for a := range ct.Counts {
				codes, counts := jt.Row(a)
				for k, b := range codes {
					ct.Counts[a][b] = int(counts[k])
				}
			}
			res, err := stats.ChiSquare(ct)
			if err != nil {
				return nil, err
			}
			if res.PValue <= corrSignificance && res.CramerV >= corrMinEffect {
				out = append(out, Correlation{A: attrs[i], B: attrs[j], CramerV: res.CramerV, PValue: res.PValue})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CramerV != out[j].CramerV {
			return out[i].CramerV > out[j].CramerV
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out, nil
}
