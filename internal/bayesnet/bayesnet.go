// Package bayesnet learns tree-structured Bayesian networks over a
// table's coded attributes. The paper's related-work section (§7) notes
// that "a Bayesian network can provide a more accurate description of
// attribute interactions by giving probabilistic dependencies between
// attributes" and that such techniques "can be used to create CAD Views
// with other types of data summaries" — this package provides that
// extension: a Chow-Liu tree (the maximum-likelihood tree-shaped
// network), per-edge conditional probability tables, log-likelihood
// scoring, ancestral sampling, and a ranked dependency report.
package bayesnet

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// Edge is one directed dependency Parent → Child of the learned tree,
// weighted by the attributes' mutual information (in nats).
type Edge struct {
	Parent, Child     string
	MutualInformation float64
}

// Network is a learned tree-structured Bayesian network.
type Network struct {
	// Root is the attribute the tree was rooted at.
	Root string
	// Edges are the directed dependencies in breadth-first order.
	Edges []Edge

	attrs  []string
	cols   map[string]*dataview.Column
	parent map[string]string // child -> parent ("" for root)
	// cpt[child] holds P(child | parent); the root's table has the single
	// parent code 0.
	cpt map[string]*cpt
}

// smoothing is the Laplace pseudo-count added to every CPT cell.
const smoothing = 1.0

// cpt is one attribute's conditional probability table, kept sparse: the
// observed (parent code, child code) counts plus each parent code's
// smoothed total, so P(child=c | parent=p) = (smoothing + count) /
// total[p]. Most cells of a wide pair are never observed, and a dense
// table of them would hold the same smoothing quotient over and over.
type cpt struct {
	counts *dataview.Joint
	total  []float64
}

// newCPT smooths observed counts. Each parent code's total sums
// smoothing + count over the child codes in code order, exactly as a
// dense table's row would be summed.
func newCPT(counts *dataview.Joint) *cpt {
	t := &cpt{counts: counts, total: make([]float64, counts.ACard())}
	for pc := range t.total {
		codes, obs := counts.Row(pc)
		k := 0
		for cc := 0; cc < counts.BCard; cc++ {
			c := smoothing
			if k < len(codes) && int(codes[k]) == cc {
				c += float64(obs[k])
				k++
			}
			t.total[pc] += c
		}
	}
	return t
}

// prob returns P(child=cc | parent=pc).
func (t *cpt) prob(pc, cc int) float64 {
	codes, obs := t.counts.Row(pc)
	c := smoothing
	if k, ok := slices.BinarySearch(codes, int32(cc)); ok {
		c += float64(obs[k])
	}
	return c / t.total[pc]
}

// Options configures learning.
type Options struct {
	// Root names the attribute to root the tree at; empty picks the
	// attribute with the highest total mutual information (the most
	// "central" attribute).
	Root string
}

// Learn fits a Chow-Liu tree over the given attributes of v restricted
// to rows. At least two attributes and one row are required.
func Learn(v *dataview.View, rows dataset.RowSet, attrs []string, opt Options) (*Network, error) {
	if len(attrs) < 2 {
		return nil, fmt.Errorf("bayesnet: need at least 2 attributes, got %d", len(attrs))
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("bayesnet: empty row set")
	}
	pc, err := v.CountPairs(rows, attrs)
	if err != nil {
		return nil, err
	}
	return LearnPairs(pc, opt)
}

// LearnPairs is Learn over an existing pairwise sweep: mutual
// information for every pair and the tree edges' conditional tables all
// come from the sweep's joint counts.
func LearnPairs(pc *dataview.PairCounts, opt Options) (*Network, error) {
	n := len(pc.Cols)
	attrs := make([]string, n)
	cols := make(map[string]*dataview.Column, n)
	for i, c := range pc.Cols {
		if cols[c.Attr] != nil {
			return nil, fmt.Errorf("bayesnet: duplicate attribute %q", c.Attr)
		}
		attrs[i] = c.Attr
		cols[c.Attr] = c
	}

	// Pairwise mutual information.
	mi := make([][]float64, n)
	for i := range mi {
		mi[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := mutualInformation(pc.Joint(i, j), pc.Rows)
			mi[i][j] = m
			mi[j][i] = m
		}
	}

	// Maximum spanning tree over MI weights (Prim).
	inTree := make([]bool, n)
	bestW := make([]float64, n)
	bestFrom := make([]int, n)
	for i := range bestW {
		bestW[i] = -1
		bestFrom[i] = -1
	}
	rootIdx := pickRoot(attrs, mi, opt.Root)
	if rootIdx < 0 {
		return nil, fmt.Errorf("bayesnet: root attribute %q not in attribute list", opt.Root)
	}
	inTree[rootIdx] = true
	for j := 0; j < n; j++ {
		if j != rootIdx {
			bestW[j] = mi[rootIdx][j]
			bestFrom[j] = rootIdx
		}
	}
	parentIdx := make([]int, n)
	parentIdx[rootIdx] = -1
	for added := 1; added < n; added++ {
		pick := -1
		for j := 0; j < n; j++ {
			if !inTree[j] && (pick < 0 || bestW[j] > bestW[pick]) {
				pick = j
			}
		}
		inTree[pick] = true
		parentIdx[pick] = bestFrom[pick]
		for j := 0; j < n; j++ {
			if !inTree[j] && mi[pick][j] > bestW[j] {
				bestW[j] = mi[pick][j]
				bestFrom[j] = pick
			}
		}
	}

	net := &Network{
		Root:   attrs[rootIdx],
		attrs:  attrs,
		cols:   cols,
		parent: make(map[string]string, n),
		cpt:    make(map[string]*cpt, n),
	}
	// Breadth-first edge order from the root for stable output.
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
			net.Edges = append(net.Edges, Edge{
				Parent:            attrs[p],
				Child:             attrs[j],
				MutualInformation: mi[p][j],
			})
			net.parent[attrs[j]] = attrs[p]
			order = append(order, j)
		}
	}
	net.parent[attrs[rootIdx]] = ""

	// CPT estimation with Laplace smoothing: the root's counts are its
	// marginal, every child's its joint with the parent. NaN cells
	// contribute no observation; the smoothing prior still keeps every
	// row normalizable.
	for i, a := range attrs {
		p := parentIdx[i]
		if p < 0 {
			net.cpt[a] = newCPT(pc.MarginalJoint(i))
		} else {
			net.cpt[a] = newCPT(pc.Joint(p, i))
		}
	}
	return net, nil
}

func pickRoot(attrs []string, mi [][]float64, want string) int {
	if want != "" {
		for i, a := range attrs {
			if a == want {
				return i
			}
		}
		return -1
	}
	best, bestSum := 0, -1.0
	for i := range attrs {
		var sum float64
		for j := range attrs {
			sum += mi[i][j]
		}
		if sum > bestSum {
			best, bestSum = i, sum
		}
	}
	return best
}

// mutualInformation computes I(A;B) in nats from a pair's joint counts
// over the given number of swept rows. Rows with a NaN cell join no
// joint cell but still count in rows.
func mutualInformation(jt *dataview.Joint, rows int) float64 {
	px := make([]float64, jt.ACard())
	py := make([]float64, jt.BCard)
	for a := range px {
		codes, counts := jt.Row(a)
		for k, c := range counts {
			px[a] += float64(c)
			py[codes[k]] += float64(c)
		}
	}
	n := float64(rows)
	var mi float64
	for a := range px {
		codes, counts := jt.Row(a)
		for k, c := range counts {
			j := float64(c)
			mi += (j / n) * math.Log(j*n/(px[a]*py[codes[k]]))
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

// Parent returns an attribute's parent, or "" for the root.
func (net *Network) Parent(attr string) string { return net.parent[attr] }

// Prob returns P(attr = value | parent's value in the same row context).
// For the root, the parent value is ignored.
func (net *Network) Prob(attr, value, parentValue string) (float64, error) {
	col, ok := net.cols[attr]
	if !ok {
		return 0, fmt.Errorf("bayesnet: attribute %q not in network", attr)
	}
	cc := col.CodeOf(value)
	if cc < 0 {
		return 0, fmt.Errorf("bayesnet: attribute %q has no value %q", attr, value)
	}
	pc := 0
	if p := net.parent[attr]; p != "" {
		pcol := net.cols[p]
		pc = pcol.CodeOf(parentValue)
		if pc < 0 {
			return 0, fmt.Errorf("bayesnet: parent %q has no value %q", p, parentValue)
		}
	}
	return net.cpt[attr].prob(pc, cc), nil
}

// LogLikelihood scores rows under the network (sum of per-row joint
// log-probabilities).
func (net *Network) LogLikelihood(rows dataset.RowSet) float64 {
	var ll float64
	for _, r := range rows {
		for _, a := range net.attrs {
			col := net.cols[a]
			pc := 0
			if p := net.parent[a]; p != "" {
				pc = net.cols[p].Code(r)
			}
			cc := col.Code(r)
			if pc < 0 || cc < 0 {
				continue // NaN cells contribute no factor
			}
			ll += math.Log(net.cpt[a].prob(pc, cc))
		}
	}
	return ll
}

// MemoryBytes returns the bytes of the network's conditional probability
// tables: sparse counts plus one total per parent code.
func (net *Network) MemoryBytes() int {
	total := 0
	for _, t := range net.cpt {
		total += t.counts.MemoryBytes() + 8*len(t.total)
	}
	return total
}

// Dependencies returns the learned edges sorted by descending mutual
// information — the "ranked attribute interactions" report.
func (net *Network) Dependencies() []Edge {
	out := append([]Edge(nil), net.Edges...)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].MutualInformation > out[j].MutualInformation
	})
	return out
}

// Render prints the tree with per-edge MI, indented by depth.
func (net *Network) Render() string {
	children := map[string][]Edge{}
	for _, e := range net.Edges {
		children[e.Parent] = append(children[e.Parent], e)
	}
	var b strings.Builder
	var walk func(attr string, depth int)
	walk = func(attr string, depth int) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), attr)
		for _, e := range children[attr] {
			fmt.Fprintf(&b, "%s└─ (MI %.3f)\n", strings.Repeat("  ", depth), e.MutualInformation)
			walk(e.Child, depth+1)
		}
	}
	walk(net.Root, 0)
	return b.String()
}
