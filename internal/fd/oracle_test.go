package fd

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/stats"
)

// The row-scan oracle: plain per-pair loops over rows that read every
// cell through Column.Code. They share nothing with the pairwise
// code-count sweep the package mines from, and the equivalence tests
// below pin Discover, G3 and Correlations to them bit for bit.

func oracleG3(v *dataview.View, rows dataset.RowSet, x, y string) float64 {
	cx, _ := v.Column(x)
	cy, _ := v.Column(y)
	counts := make([][]int, cx.Cardinality())
	labeled := 0
	for _, r := range rows {
		xc, yc := cx.Code(r), cy.Code(r)
		if xc < 0 || yc < 0 {
			continue
		}
		labeled++
		if counts[xc] == nil {
			counts[xc] = make([]int, cy.Cardinality())
		}
		counts[xc][yc]++
	}
	if labeled == 0 {
		return 0
	}
	kept := 0
	for _, row := range counts {
		best := 0
		for _, c := range row {
			best = max(best, c)
		}
		kept += best
	}
	return 1 - float64(kept)/float64(labeled)
}

func oracleLiveCard(v *dataview.View, rows dataset.RowSet, attr string) int {
	col, _ := v.Column(attr)
	seen := map[int]bool{}
	for _, r := range rows {
		if c := col.Code(r); c >= 0 {
			seen[c] = true
		}
	}
	return len(seen)
}

func oracleDiscover(v *dataview.View, rows dataset.RowSet, attrs []string) []Dependency {
	var out []Dependency
	for _, x := range attrs {
		lx := oracleLiveCard(v, rows, x)
		if lx < 2 || float64(lx) > 0.5*float64(len(rows)) {
			continue
		}
		for _, y := range attrs {
			if x == y || oracleLiveCard(v, rows, y) < 2 {
				continue
			}
			g3 := oracleG3(v, rows, x, y)
			if g3 > 0.05 {
				continue
			}
			out = append(out, Dependency{Determinant: x, Dependent: y, Error: g3})
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

func oracleCorrelations(v *dataview.View, rows dataset.RowSet, attrs []string) ([]Correlation, error) {
	var out []Correlation
	for i := 0; i < len(attrs); i++ {
		for j := i + 1; j < len(attrs); j++ {
			ci, _ := v.Column(attrs[i])
			cj, _ := v.Column(attrs[j])
			ct := stats.NewContingencyTable(ci.Cardinality(), cj.Cardinality())
			for _, r := range rows {
				a, b := ci.Code(r), cj.Code(r)
				if a >= 0 && b >= 0 {
					ct.Add(a, b)
				}
			}
			res, err := stats.ChiSquare(ct)
			if err != nil {
				return nil, err
			}
			if res.PValue <= 0.01 && res.CramerV >= 0.1 {
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

// randomView builds n rows of dependent categorical columns (one of them
// single-valued) and numeric columns with NaN cells. Column c1 is a noisy
// function of c0, so approximate dependencies exist to be found.
func randomView(t *testing.T, rng *rand.Rand, n int) (*dataview.View, []string) {
	t.Helper()
	schema := dataset.Schema{
		{Name: "c0", Kind: dataset.Categorical},
		{Name: "c1", Kind: dataset.Categorical},
		{Name: "c2", Kind: dataset.Categorical},
		{Name: "one", Kind: dataset.Categorical},
		{Name: "x", Kind: dataset.Numeric},
		{Name: "y", Kind: dataset.Numeric},
	}
	tbl := dataset.NewTable("random", schema)
	card := 2 + rng.Intn(5)
	for i := 0; i < n; i++ {
		a := rng.Intn(card)
		b := a / 2
		if rng.Float64() < 0.03 {
			b = rng.Intn(card)
		}
		x, y := float64(a)+rng.Float64(), rng.NormFloat64()
		if rng.Float64() < 0.1 {
			x = math.NaN()
		}
		if rng.Float64() < 0.05 {
			y = math.NaN()
		}
		tbl.MustAppendRow(fmt.Sprint("a", a), fmt.Sprint("b", b), fmt.Sprint("c", rng.Intn(3)), "only", x, y)
	}
	v, err := dataview.New(tbl, dataview.Options{Bins: 1 + rng.Intn(6)})
	if err != nil {
		t.Fatal(err)
	}
	return v, []string{"c0", "c1", "c2", "one", "x", "y"}
}

// randomSubset keeps each row with probability p.
func randomSubset(rng *rand.Rand, n int, p float64) dataset.RowSet {
	var rows dataset.RowSet
	for r := 0; r < n; r++ {
		if rng.Float64() < p {
			rows = append(rows, r)
		}
	}
	return rows
}

// checkAgainstOracle compares Discover, G3 over every ordered pair, and
// Correlations with the oracle, bit for bit.
func checkAgainstOracle(t *testing.T, v *dataview.View, rows dataset.RowSet, attrs []string) {
	t.Helper()
	got, err := Discover(v, rows, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleDiscover(v, rows, attrs); !reflect.DeepEqual(got, want) {
		t.Fatalf("Discover over %d rows:\n got %v\nwant %v", len(rows), got, want)
	}
	for _, x := range attrs {
		for _, y := range attrs {
			if x == y {
				continue
			}
			got, err := G3(v, rows, x, y)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleG3(v, rows, x, y); got != want {
				t.Fatalf("G3(%s -> %s) over %d rows = %v, oracle %v", x, y, len(rows), got, want)
			}
		}
	}
	// Chi-square rejects a single-valued column, so correlations run
	// over the columns with a real domain.
	live := []string{}
	for _, a := range attrs {
		if a != "one" {
			live = append(live, a)
		}
	}
	corrs, gotErr := Correlations(v, rows, live)
	wantCorrs, wantErr := oracleCorrelations(v, rows, live)
	if (gotErr != nil) != (wantErr != nil) || !reflect.DeepEqual(corrs, wantCorrs) {
		t.Fatalf("Correlations over %d rows:\n got %v (%v)\nwant %v (%v)", len(rows), corrs, gotErr, wantCorrs, wantErr)
	}
}

// TestMiningMatchesRowScanOracle pins the sweep-based miners to the
// oracle on random tables with NaN numeric cells and a single-valued
// column, over the whole view (the segment walk) and over row subsets
// (the facade path).
func TestMiningMatchesRowScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		n := 20 + rng.Intn(3000)
		v, attrs := randomView(t, rng, n)
		checkAgainstOracle(t, v, dataset.AllRows(n), attrs)
		if sub := randomSubset(rng, n, 0.3); len(sub) > 0 {
			checkAgainstOracle(t, v, sub, attrs)
		}
	}
}

// TestMiningSegmentBoundaryShapes runs the oracle comparison at row
// counts one short of, exactly on, and one past a storage segment, with
// a subset that straddles the boundary.
func TestMiningSegmentBoundaryShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{dataset.SegmentSize - 1, dataset.SegmentSize, dataset.SegmentSize + 1} {
		v, attrs := randomView(t, rng, n)
		attrs = []string{"c0", "c1", "x"}
		checkAgainstOracle(t, v, dataset.AllRows(n), attrs)
		var straddle dataset.RowSet
		for r := dataset.SegmentSize - 500; r < n; r++ {
			straddle = append(straddle, r)
		}
		checkAgainstOracle(t, v, straddle, attrs)
	}
}
