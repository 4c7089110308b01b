package dataview

import (
	"fmt"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/parallel"
)

// PairCounts is the pairwise joint code-count sweep over a set of view
// columns: for every unordered column pair, how many of the swept rows
// carry each (code, code) combination, and for every column how many
// carry each of its codes. A row whose cell in either column of a pair
// is NaN (code -1) joins no joint cell of that pair; a marginal skips
// only the column's own NaN cells. Attribute-interaction mining
// (functional dependencies, Chow-Liu trees, chi-square correlations)
// reads everything it needs from one sweep instead of rescanning the
// rows per pair and per statistic.
type PairCounts struct {
	// Cols are the swept columns, in request order.
	Cols []*Column
	// Rows is the number of rows swept, NaN cells included.
	Rows int

	marg  [][]int
	joint [][]*Joint // joint[i][j], filled for i < j
}

// Joint holds the nonzero joint counts of one column pair in compressed
// sparse row form over the first column's codes: the cells of first
// code a are second codes B[Start[a]:Start[a+1]], ascending, with counts
// N at the same positions.
type Joint struct {
	Start []int32
	B     []int32
	N     []int32
	// BCard is the second column's cardinality.
	BCard int
}

// ACard returns the first column's cardinality.
func (jt *Joint) ACard() int { return len(jt.Start) - 1 }

// Row returns first code a's nonzero cells: second codes ascending and
// their counts.
func (jt *Joint) Row(a int) (codes, counts []int32) {
	lo, hi := jt.Start[a], jt.Start[a+1]
	return jt.B[lo:hi], jt.N[lo:hi]
}

// Transpose returns the same counts indexed by the second column's
// codes.
func (jt *Joint) Transpose() *Joint {
	t := &Joint{
		Start: make([]int32, jt.BCard+1),
		B:     make([]int32, len(jt.B)),
		N:     make([]int32, len(jt.N)),
		BCard: jt.ACard(),
	}
	for _, b := range jt.B {
		t.Start[b+1]++
	}
	for b := 0; b < jt.BCard; b++ {
		t.Start[b+1] += t.Start[b]
	}
	pos := append([]int32(nil), t.Start[:jt.BCard]...)
	for a := 0; a < jt.ACard(); a++ {
		codes, counts := jt.Row(a)
		for k, b := range codes {
			p := pos[b]
			t.B[p], t.N[p] = int32(a), counts[k]
			pos[b] = p + 1
		}
	}
	return t
}

// MemoryBytes returns the bytes of the table's backing arrays.
func (jt *Joint) MemoryBytes() int { return 4 * (len(jt.Start) + len(jt.B) + len(jt.N)) }

// Marginal returns column i's code counts over the swept rows; callers
// must not modify it.
func (p *PairCounts) Marginal(i int) []int { return p.marg[i] }

// MarginalJoint returns column i's marginal as a one-row joint table
// (first code 0) over the column's codes.
func (p *PairCounts) MarginalJoint(i int) *Joint {
	marg := p.marg[i]
	jt := &Joint{Start: make([]int32, 2), BCard: len(marg)}
	for code, c := range marg {
		if c > 0 {
			jt.B = append(jt.B, int32(code))
			jt.N = append(jt.N, int32(c))
		}
	}
	jt.Start[1] = int32(len(jt.B))
	return jt
}

// Joint returns the joint counts of columns i and j (i != j), indexed by
// column i's codes first.
func (p *PairCounts) Joint(i, j int) *Joint {
	if i > j {
		return p.joint[j][i].Transpose()
	}
	return p.joint[i][j]
}

// pairScratchBudget bounds the bytes of dense pair tables a sweep holds
// at once.
const pairScratchBudget = 64 << 20

// CountPairs sweeps the named columns over rows once per unordered
// column pair, each pair on the shared worker pool. A nil rows (or the
// full row set) sweeps the view's whole snapshot straight off the
// segment-aligned code slices; otherwise every row must lie inside the
// snapshot. Each pair counts into a dense scratch table with one extra
// code for NaN in each column — so the inner loop has no branch — and
// keeps only the nonzero cells. The marginals fall out of the same
// tables: column i's from pair (i, i+1), the last column's from the last
// pair. Scratch tables are reused across pairs, and pairs run
// concurrently only as far as their tables fit pairScratchBudget
// together, so a sweep's scratch peak stays within the budget (or one
// widest table) however many CPUs the pool has.
func (v *View) CountPairs(rows dataset.RowSet, attrs []string) (*PairCounts, error) {
	if len(attrs) < 2 {
		return nil, fmt.Errorf("dataview: need at least 2 columns to count pairs, got %d", len(attrs))
	}
	cols := make([]*Column, len(attrs))
	for i, a := range attrs {
		c, err := v.Column(a)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	if rows.IsAllRows(v.rows) {
		rows = nil
	}
	for _, r := range rows {
		if r < 0 || r >= v.rows {
			return nil, fmt.Errorf("dataview: row %d outside the view's %d-row snapshot", r, v.rows)
		}
	}
	// Materialize the code slices before fanning out: a cold numeric
	// column codes itself on the same pool.
	segs := make([][][]int32, len(cols))
	for i, c := range cols {
		segs[i] = c.CodeSegs()
	}
	k := len(cols)
	p := &PairCounts{Cols: cols, Rows: v.rows, marg: make([][]int, k), joint: make([][]*Joint, k)}
	for i := range p.joint {
		p.joint[i] = make([]*Joint, k)
	}
	if rows != nil {
		p.Rows = len(rows)
	}
	pairs := make([][2]int, 0, k*(k-1)/2)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	widest := 0
	for _, pr := range pairs {
		widest = max(widest, (cols[pr[0]].Cardinality()+1)*(cols[pr[1]].Cardinality()+1))
	}
	slots := max(1, min(parallel.Workers(), pairScratchBudget/(4*widest)))
	scratch := make(chan []int32, slots)
	for range slots {
		scratch <- nil // allocated on first use
	}
	parallel.Do(len(pairs), func(x int) {
		buf := <-scratch
		defer func() { scratch <- buf }()
		if buf == nil {
			buf = make([]int32, widest)
		}
		i, j := pairs[x][0], pairs[x][1]
		w := cols[j].Cardinality() + 1
		dense := buf[:(cols[i].Cardinality()+1)*w]
		clear(dense)
		if rows == nil {
			for s, a := range segs[i] {
				b := segs[j][s][:len(a)]
				for r, ca := range a {
					dense[int(ca+1)*w+int(b[r]+1)]++
				}
			}
		} else {
			for _, r := range rows {
				s, off := r>>dataset.SegmentBits, r&dataset.SegmentMask
				dense[int(segs[i][s][off]+1)*w+int(segs[j][s][off]+1)]++
			}
		}
		p.joint[i][j] = sparseJoint(dense, w)
		if j == i+1 {
			p.marg[i] = denseRowSums(dense, w)
		}
		if i == k-2 && j == k-1 {
			p.marg[j] = denseColSums(dense, w)
		}
	})
	return p, nil
}

// sparseJoint keeps the nonzero non-NaN cells of a dense (ca+1)×w pair
// table whose row 0 and column 0 count NaN cells.
func sparseJoint(dense []int32, w int) *Joint {
	ca := len(dense)/w - 1
	jt := &Joint{Start: make([]int32, ca+1), BCard: w - 1}
	nnz := 0
	for a := 0; a < ca; a++ {
		for _, c := range dense[(a+1)*w+1 : (a+2)*w] {
			if c != 0 {
				nnz++
			}
		}
		jt.Start[a+1] = int32(nnz)
	}
	jt.B = make([]int32, 0, nnz)
	jt.N = make([]int32, 0, nnz)
	for a := 0; a < ca; a++ {
		for b, c := range dense[(a+1)*w+1 : (a+2)*w] {
			if c != 0 {
				jt.B = append(jt.B, int32(b))
				jt.N = append(jt.N, c)
			}
		}
	}
	return jt
}

// denseRowSums returns the first column's marginal: each non-NaN row of
// the dense pair table summed across every second code, NaN included.
func denseRowSums(dense []int32, w int) []int {
	out := make([]int, len(dense)/w-1)
	for a := range out {
		for _, c := range dense[(a+1)*w : (a+2)*w] {
			out[a] += int(c)
		}
	}
	return out
}

// denseColSums returns the second column's marginal.
func denseColSums(dense []int32, w int) []int {
	out := make([]int, w-1)
	for row := 0; row < len(dense); row += w {
		for b, c := range dense[row+1 : row+w] {
			out[b] += int(c)
		}
	}
	return out
}
