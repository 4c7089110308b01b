// Package dtree builds decision trees over a result set's coded
// attributes. The paper's related work (§7) cites decision-tree result
// categorization (Chakrabarti et al. [4]; Chen & Li [6]) as the other
// major family of context-dependent result summaries; this package
// provides that baseline: an ID3-style information-gain tree whose
// rendering doubles as a navigation hierarchy over the result set, and
// whose classification mode supports ablations against the CAD View's
// contrast-based summaries.
package dtree

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// Node is one tree node. Leaves have SplitAttr == "" and carry the
// majority label; internal nodes split on SplitAttr with one child per
// attribute code present.
type Node struct {
	// SplitAttr is the attribute this node splits on; empty for leaves.
	SplitAttr string
	// Children maps the split attribute's value label to the subtree.
	Children map[string]*Node
	// Label is the majority class at this node.
	Label string
	// Count is the number of training rows reaching this node.
	Count int
	// ClassCounts are per-class-code training counts at this node.
	ClassCounts []int
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.SplitAttr == "" }

// Tree is a fitted decision tree.
type Tree struct {
	Root      *Node
	ClassAttr string

	view     *dataview.View
	classCol *dataview.Column
	cols     map[string]*dataview.Column
}

// Options bounds tree growth.
type Options struct {
	// MaxDepth bounds the number of splits on any path (default 4).
	MaxDepth int
}

func (o Options) withDefaults() Options {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 4
	}
	return o
}

// Split thresholds: every child of a split must receive at least
// minLeaf rows, and the split must gain at least minGain nats of
// information.
const (
	minLeaf = 10
	minGain = 1e-3
)

// Build fits a tree predicting classAttr from the candidate attributes
// over rows.
func Build(v *dataview.View, rows dataset.RowSet, classAttr string, candidates []string, opt Options) (*Tree, error) {
	opt = opt.withDefaults()
	classCol, err := v.Column(classAttr)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dtree: empty row set")
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("dtree: no candidate attributes")
	}
	cols := make(map[string]*dataview.Column, len(candidates))
	for _, a := range candidates {
		if a == classAttr {
			return nil, fmt.Errorf("dtree: class attribute %q cannot be a candidate", a)
		}
		c, err := v.Column(a)
		if err != nil {
			return nil, err
		}
		cols[a] = c
	}
	t := &Tree{ClassAttr: classAttr, view: v, classCol: classCol, cols: cols}
	t.Root = t.grow(rows, candidates, opt, 0)
	return t, nil
}

func (t *Tree) grow(rows dataset.RowSet, candidates []string, opt Options, depth int) *Node {
	node := &Node{Count: len(rows), ClassCounts: make([]int, t.classCol.Cardinality())}
	for _, r := range rows {
		// NaN class cells code -1 and count toward no class.
		if c := t.classCol.Code(r); c >= 0 {
			node.ClassCounts[c]++
		}
	}
	node.Label = t.majority(node.ClassCounts)

	if depth >= opt.MaxDepth || len(rows) < 2*minLeaf || pure(node.ClassCounts) {
		return node
	}
	baseH := entropy(node.ClassCounts, len(rows))
	bestAttr := ""
	bestGain := minGain
	var bestParts map[int]dataset.RowSet
	for _, a := range candidates {
		col := t.cols[a]
		parts := map[int]dataset.RowSet{}
		for _, r := range rows {
			// NaN cells belong to no split branch.
			if c := col.Code(r); c >= 0 {
				parts[c] = append(parts[c], r)
			}
		}
		if len(parts) < 2 {
			continue
		}
		ok := true
		var cond float64
		for _, part := range parts {
			if len(part) < minLeaf {
				ok = false
				break
			}
			counts := make([]int, t.classCol.Cardinality())
			for _, r := range part {
				if c := t.classCol.Code(r); c >= 0 {
					counts[c]++
				}
			}
			cond += float64(len(part)) / float64(len(rows)) * entropy(counts, len(part))
		}
		if !ok {
			continue
		}
		if gain := baseH - cond; gain > bestGain {
			bestGain = gain
			bestAttr = a
			bestParts = parts
		}
	}
	if bestAttr == "" {
		return node
	}

	node.SplitAttr = bestAttr
	node.Children = make(map[string]*Node, len(bestParts))
	var remaining []string
	for _, a := range candidates {
		if a != bestAttr {
			remaining = append(remaining, a)
		}
	}
	col := t.cols[bestAttr]
	codes := make([]int, 0, len(bestParts))
	for c := range bestParts {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		node.Children[col.Label(c)] = t.grow(bestParts[c], remaining, opt, depth+1)
	}
	return node
}

func (t *Tree) majority(counts []int) string {
	best, bestN := 0, -1
	for code, n := range counts {
		if n > bestN {
			best, bestN = code, n
		}
	}
	return t.classCol.Label(best)
}

func pure(counts []int) bool {
	nonZero := 0
	for _, c := range counts {
		if c > 0 {
			nonZero++
		}
	}
	return nonZero <= 1
}

func entropy(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log(p)
	}
	return h
}

// Classify predicts the class label of one table row. Unseen split
// values fall back to the node's majority label.
func (t *Tree) Classify(row int) string {
	node := t.Root
	for !node.IsLeaf() {
		col := t.cols[node.SplitAttr]
		c := col.Code(row)
		if c < 0 {
			break // NaN split value: fall back to the majority label
		}
		child, ok := node.Children[col.Label(c)]
		if !ok {
			break
		}
		node = child
	}
	return node.Label
}

// Accuracy returns the fraction of rows whose class the tree predicts
// correctly.
func (t *Tree) Accuracy(rows dataset.RowSet) float64 {
	if len(rows) == 0 {
		return 0
	}
	correct := 0
	for _, r := range rows {
		c := t.classCol.Code(r)
		if c < 0 {
			continue // NaN class: never counts as correct
		}
		if t.Classify(r) == t.classCol.Label(c) {
			correct++
		}
	}
	return float64(correct) / float64(len(rows))
}

// Depth returns the maximum number of splits on any root-to-leaf path.
func (t *Tree) Depth() int { return depthOf(t.Root) }

func depthOf(n *Node) int {
	if n.IsLeaf() {
		return 0
	}
	best := 0
	for _, c := range n.Children {
		if d := depthOf(c); d > best {
			best = d
		}
	}
	return best + 1
}

// Leaves returns the number of leaf nodes — the size of the navigation
// categorization.
func (t *Tree) Leaves() int { return leavesOf(t.Root) }

func leavesOf(n *Node) int {
	if n.IsLeaf() {
		return 1
	}
	total := 0
	for _, c := range n.Children {
		total += leavesOf(c)
	}
	return total
}

// Render prints the tree as an indented navigation hierarchy: each split
// value becomes a category with its row count and majority class.
func (t *Tree) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%d rows, %s)\n", t.Root.Count, t.Root.Label)
	renderNode(&b, t.Root, 1)
	return b.String()
}

func renderNode(b *strings.Builder, n *Node, depth int) {
	if n.IsLeaf() {
		return
	}
	labels := make([]string, 0, len(n.Children))
	for l := range n.Children {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		child := n.Children[l]
		fmt.Fprintf(b, "%s%s = %s (%d rows, %s)\n",
			strings.Repeat("  ", depth), n.SplitAttr, l, child.Count, child.Label)
		renderNode(b, child, depth+1)
	}
}
