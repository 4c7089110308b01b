package stats

import (
	"fmt"
	"math"
)

// ContingencyTable is an r×c table of observed counts: rows are values of
// one categorical variable (e.g. a candidate Compare Attribute), columns
// are classes (e.g. the Pivot Attribute values).
type ContingencyTable struct {
	Counts [][]int // Counts[i][j], len(Counts) = rows, all rows same width
}

// NewContingencyTable allocates an r×c zero table.
func NewContingencyTable(rows, cols int) *ContingencyTable {
	counts := make([][]int, rows)
	for i := range counts {
		counts[i] = make([]int, cols)
	}
	return &ContingencyTable{Counts: counts}
}

// Add increments cell (i, j).
func (ct *ContingencyTable) Add(i, j int) { ct.Counts[i][j]++ }

// ChiSquareResult holds a chi-square test of independence.
type ChiSquareResult struct {
	Stat    float64 // the X² statistic
	DF      int     // degrees of freedom (r-1)(c-1) over non-empty rows/cols
	PValue  float64 // survival probability
	CramerV float64 // effect size in [0,1], comparable across tables
}

// ChiSquare computes the chi-square test of independence on ct. Rows and
// columns whose marginal is zero are ignored (they contribute no
// information and would otherwise produce 0/0 expectations).
func ChiSquare(ct *ContingencyTable) (ChiSquareResult, error) {
	if len(ct.Counts) == 0 || len(ct.Counts[0]) == 0 {
		return ChiSquareResult{}, fmt.Errorf("stats: empty contingency table")
	}
	rows, cols := len(ct.Counts), len(ct.Counts[0])
	rowSum := make([]float64, rows)
	colSum := make([]float64, cols)
	var n float64
	for i := 0; i < rows; i++ {
		if len(ct.Counts[i]) != cols {
			return ChiSquareResult{}, fmt.Errorf("stats: ragged contingency table")
		}
		for j := 0; j < cols; j++ {
			v := float64(ct.Counts[i][j])
			rowSum[i] += v
			colSum[j] += v
			n += v
		}
	}
	if n == 0 {
		return ChiSquareResult{}, fmt.Errorf("stats: contingency table has no observations")
	}
	liveRows, liveCols := 0, 0
	for _, s := range rowSum {
		if s > 0 {
			liveRows++
		}
	}
	for _, s := range colSum {
		if s > 0 {
			liveCols++
		}
	}
	df := (liveRows - 1) * (liveCols - 1)
	if df < 1 {
		// Degenerate: a single live row or column is perfectly
		// uninformative; report stat 0 with p-value 1.
		return ChiSquareResult{Stat: 0, DF: 1, PValue: 1, CramerV: 0}, nil
	}
	var stat float64
	for i := 0; i < rows; i++ {
		if rowSum[i] == 0 {
			continue
		}
		for j := 0; j < cols; j++ {
			if colSum[j] == 0 {
				continue
			}
			expected := rowSum[i] * colSum[j] / n
			d := float64(ct.Counts[i][j]) - expected
			stat += d * d / expected
		}
	}
	p, err := ChiSquarePValue(stat, df)
	if err != nil {
		return ChiSquareResult{}, err
	}
	minDim := liveRows - 1
	if liveCols-1 < minDim {
		minDim = liveCols - 1
	}
	v := 0.0
	if minDim > 0 {
		v = math.Sqrt(stat / (n * float64(minDim)))
	}
	return ChiSquareResult{Stat: stat, DF: df, PValue: p, CramerV: v}, nil
}
