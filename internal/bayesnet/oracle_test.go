package bayesnet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// The row-scan oracle: Chow-Liu learning as plain loops over rows — one
// pass per pair for mutual information, one per attribute for a dense
// conditional table — reading every cell through Column.Code. It shares
// nothing with the pairwise code-count sweep Learn mines from but the
// root choice (pickRoot), and the tests below pin Learn's edges, Prob
// and LogLikelihood to it.

type oracleNet struct {
	root   string
	edges  []Edge
	parent map[string]string
	cpt    map[string][][]float64 // cpt[child][parentCode][childCode]
	cols   map[string]*dataview.Column
}

func oraclePairMI(x, y *dataview.Column, rows dataset.RowSet) float64 {
	joint := make([][]float64, x.Cardinality())
	for i := range joint {
		joint[i] = make([]float64, y.Cardinality())
	}
	px := make([]float64, x.Cardinality())
	py := make([]float64, y.Cardinality())
	n := float64(len(rows))
	for _, r := range rows {
		cx, cy := x.Code(r), y.Code(r)
		if cx < 0 || cy < 0 {
			continue
		}
		joint[cx][cy]++
		px[cx]++
		py[cy]++
	}
	var mi float64
	for i := range joint {
		if px[i] == 0 {
			continue
		}
		for j := range joint[i] {
			if joint[i][j] == 0 || py[j] == 0 {
				continue
			}
			mi += (joint[i][j] / n) * math.Log(joint[i][j]*n/(px[i]*py[j]))
		}
	}
	return max(mi, 0)
}

func oracleLearn(t *testing.T, v *dataview.View, rows dataset.RowSet, attrs []string) *oracleNet {
	t.Helper()
	n := len(attrs)
	cols := make(map[string]*dataview.Column, n)
	for _, a := range attrs {
		c, err := v.Column(a)
		if err != nil {
			t.Fatal(err)
		}
		cols[a] = c
	}
	mi := make([][]float64, n)
	for i := range mi {
		mi[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := oraclePairMI(cols[attrs[i]], cols[attrs[j]], rows)
			mi[i][j], mi[j][i] = m, m
		}
	}
	// Prim's maximum spanning tree from the highest-total-MI attribute.
	rootIdx := pickRoot(attrs, mi, "")
	inTree := make([]bool, n)
	parentIdx := make([]int, n)
	bestW := make([]float64, n)
	inTree[rootIdx], parentIdx[rootIdx] = true, -1
	for j := range bestW {
		bestW[j], parentIdx[j] = mi[rootIdx][j], rootIdx
	}
	parentIdx[rootIdx] = -1
	for added := 1; added < n; added++ {
		pick := -1
		for j := 0; j < n; j++ {
			if !inTree[j] && (pick < 0 || bestW[j] > bestW[pick]) {
				pick = j
			}
		}
		inTree[pick] = true
		for j := 0; j < n; j++ {
			if !inTree[j] && mi[pick][j] > bestW[j] {
				bestW[j], parentIdx[j] = mi[pick][j], pick
			}
		}
	}
	net := &oracleNet{root: attrs[rootIdx], parent: map[string]string{attrs[rootIdx]: ""}, cpt: map[string][][]float64{}, cols: cols}
	order := []int{rootIdx}
	for head := 0; head < len(order); head++ {
		p := order[head]
		var kids []int
		for j := 0; j < n; j++ {
			if parentIdx[j] == p {
				kids = append(kids, j)
			}
		}
		sort.Slice(kids, func(a, b int) bool { return mi[p][kids[a]] > mi[p][kids[b]] })
		for _, j := range kids {
			net.edges = append(net.edges, Edge{Parent: attrs[p], Child: attrs[j], MutualInformation: mi[p][j]})
			net.parent[attrs[j]] = attrs[p]
			order = append(order, j)
		}
	}
	for _, a := range attrs {
		child := cols[a]
		parentCard, parentCol := 1, (*dataview.Column)(nil)
		if p := net.parent[a]; p != "" {
			parentCol = cols[p]
			parentCard = parentCol.Cardinality()
		}
		table := make([][]float64, parentCard)
		for pc := range table {
			table[pc] = make([]float64, child.Cardinality())
			for cc := range table[pc] {
				table[pc][cc] = 1 // Laplace pseudo-count
			}
		}
		for _, r := range rows {
			pc := 0
			if parentCol != nil {
				pc = parentCol.Code(r)
			}
			if cc := child.Code(r); pc >= 0 && cc >= 0 {
				table[pc][cc]++
			}
		}
		for pc := range table {
			var total float64
			for _, c := range table[pc] {
				total += c
			}
			for cc := range table[pc] {
				table[pc][cc] /= total
			}
		}
		net.cpt[a] = table
	}
	return net
}

// randomView builds n rows of a noisy chain c0 -> c1 -> c2, a
// single-valued column, and numeric columns with NaN cells.
func randomView(t *testing.T, rng *rand.Rand, n int) (*dataview.View, []string) {
	t.Helper()
	tbl := dataset.NewTable("random", dataset.Schema{
		{Name: "c0", Kind: dataset.Categorical},
		{Name: "c1", Kind: dataset.Categorical},
		{Name: "c2", Kind: dataset.Categorical},
		{Name: "one", Kind: dataset.Categorical},
		{Name: "x", Kind: dataset.Numeric},
	})
	card := 2 + rng.Intn(6)
	for i := 0; i < n; i++ {
		a := rng.Intn(card)
		b := (a + rng.Intn(2)) % card
		c := b / 2
		if rng.Float64() < 0.2 {
			c = rng.Intn(card)
		}
		x := float64(c) + rng.Float64()
		if rng.Float64() < 0.1 {
			x = math.NaN()
		}
		tbl.MustAppendRow(fmt.Sprint("a", a), fmt.Sprint("b", b), fmt.Sprint("c", c), "only", x)
	}
	v, err := dataview.New(tbl, dataview.Options{Bins: 1 + rng.Intn(6)})
	if err != nil {
		t.Fatal(err)
	}
	return v, []string{"c0", "c1", "c2", "one", "x"}
}

// checkAgainstOracle learns over rows and compares the root, every edge
// with its MI, every Prob and the log-likelihood with the oracle, bit for
// bit.
func checkAgainstOracle(t *testing.T, v *dataview.View, rows dataset.RowSet, attrs []string) {
	t.Helper()
	net, err := Learn(v, rows, attrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := oracleLearn(t, v, rows, attrs)
	if net.Root != want.root || !reflect.DeepEqual(net.Edges, want.edges) {
		t.Fatalf("tree over %d rows:\n got %s %+v\nwant %s %+v", len(rows), net.Root, net.Edges, want.root, want.edges)
	}
	for _, a := range attrs {
		col := want.cols[a]
		parentLabels := []string{""}
		var pcol *dataview.Column
		if p := want.parent[a]; p != "" {
			pcol = want.cols[p]
			parentLabels = pcol.Labels()
		}
		for _, pl := range parentLabels {
			pc := 0
			if pcol != nil {
				pc = pcol.CodeOf(pl)
			}
			for _, cl := range col.Labels() {
				got, err := net.Prob(a, cl, pl)
				if err != nil {
					t.Fatal(err)
				}
				if w := want.cpt[a][pc][col.CodeOf(cl)]; got != w {
					t.Fatalf("P(%s=%s | %s) = %v, oracle %v", a, cl, pl, got, w)
				}
			}
		}
	}
	var ll float64
	for _, r := range rows {
		for _, a := range attrs {
			pc := 0
			if p := want.parent[a]; p != "" {
				pc = want.cols[p].Code(r)
			}
			if cc := want.cols[a].Code(r); pc >= 0 && cc >= 0 {
				ll += math.Log(want.cpt[a][pc][cc])
			}
		}
	}
	if got := net.LogLikelihood(rows); got != ll {
		t.Fatalf("LogLikelihood = %v, oracle %v", got, ll)
	}
}

// TestLearnMatchesRowScanOracle pins Learn to the oracle on random
// tables with NaN numeric cells and a single-valued column, over the
// whole view and over row subsets.
func TestLearnMatchesRowScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 12; trial++ {
		n := 20 + rng.Intn(3000)
		v, attrs := randomView(t, rng, n)
		checkAgainstOracle(t, v, dataset.AllRows(n), attrs)
		var sub dataset.RowSet
		for r := 0; r < n; r++ {
			if rng.Float64() < 0.4 {
				sub = append(sub, r)
			}
		}
		if len(sub) > 0 {
			checkAgainstOracle(t, v, sub, attrs)
		}
	}
}

// TestLearnSegmentBoundaryShapes runs the oracle comparison at row
// counts one short of, exactly on, and one past a storage segment.
func TestLearnSegmentBoundaryShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{dataset.SegmentSize - 1, dataset.SegmentSize, dataset.SegmentSize + 1} {
		v, attrs := randomView(t, rng, n)
		checkAgainstOracle(t, v, dataset.AllRows(n), attrs)
	}
}
