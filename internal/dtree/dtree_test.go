package dtree

import (
	"strings"
	"testing"

	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

func mushroomView(t *testing.T, n int) (*dataview.View, dataset.RowSet) {
	t.Helper()
	tbl := datagen.MushroomN(n, 7)
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return v, dataset.AllRows(tbl.NumRows())
}

var mushCandidates = []string{
	"Odor", "SporePrintColor", "Bruises", "GillColor", "CapColor",
	"StalkShape", "RingType", "Habitat",
}

func TestBuildLearnsClass(t *testing.T) {
	v, rows := mushroomView(t, 4000)
	train, test := rows[:3000], rows[3000:]
	tree, err := Build(v, train, "Class", mushCandidates, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(train); acc < 0.93 {
		t.Errorf("train accuracy = %.3f, want >= 0.93 (odor nearly determines class)", acc)
	}
	if acc := tree.Accuracy(test); acc < 0.9 {
		t.Errorf("held-out accuracy = %.3f, want >= 0.9", acc)
	}
	// The root split should be one of the class-determined attributes.
	if tree.Root.SplitAttr != "Odor" && tree.Root.SplitAttr != "SporePrintColor" {
		t.Errorf("root splits on %q, want Odor or SporePrintColor", tree.Root.SplitAttr)
	}
}

func TestBuildRespectsBounds(t *testing.T) {
	// At 500 rows rare attribute values fall under minLeaf, so the
	// minimum-leaf rule has splits to refuse.
	v, rows := mushroomView(t, 500)
	tree, err := Build(v, rows, "Class", mushCandidates, Options{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d > 2 {
		t.Errorf("depth = %d, want <= 2", d)
	}
	var checkLeaves func(n *Node)
	checkLeaves = func(n *Node) {
		if n.IsLeaf() {
			if n.Count < minLeaf && n != tree.Root {
				t.Errorf("leaf with %d rows under minLeaf %d", n.Count, minLeaf)
			}
			return
		}
		if n.Count < 2*minLeaf {
			t.Errorf("node with %d rows split, under 2*minLeaf %d", n.Count, 2*minLeaf)
		}
		for _, c := range n.Children {
			checkLeaves(c)
		}
	}
	checkLeaves(tree.Root)
	if tree.Leaves() < 2 {
		t.Errorf("tree did not split at all: %d leaves", tree.Leaves())
	}
}

func TestBuildDegenerateClass(t *testing.T) {
	// A constant class yields a single pure leaf.
	tbl := dataset.NewTable("t", dataset.Schema{
		{Name: "C", Kind: dataset.Categorical, Queriable: true},
		{Name: "X", Kind: dataset.Categorical, Queriable: true},
	})
	for i := 0; i < 50; i++ {
		tbl.MustAppendRow("same", []string{"x", "y"}[i%2])
	}
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(v, dataset.AllRows(50), "C", []string{"X"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.IsLeaf() || tree.Root.Label != "same" {
		t.Errorf("constant class should give a pure leaf: %+v", tree.Root)
	}
	if tree.Accuracy(dataset.AllRows(50)) != 1 {
		t.Error("constant class accuracy != 1")
	}
	if tree.Depth() != 0 || tree.Leaves() != 1 {
		t.Errorf("depth=%d leaves=%d", tree.Depth(), tree.Leaves())
	}
}

func TestBuildErrors(t *testing.T) {
	v, rows := mushroomView(t, 200)
	if _, err := Build(v, rows, "Nope", mushCandidates, Options{}); err == nil {
		t.Error("unknown class: want error")
	}
	if _, err := Build(v, nil, "Class", mushCandidates, Options{}); err == nil {
		t.Error("no rows: want error")
	}
	if _, err := Build(v, rows, "Class", nil, Options{}); err == nil {
		t.Error("no candidates: want error")
	}
	if _, err := Build(v, rows, "Class", []string{"Class"}, Options{}); err == nil {
		t.Error("class as candidate: want error")
	}
	if _, err := Build(v, rows, "Class", []string{"Nope"}, Options{}); err == nil {
		t.Error("unknown candidate: want error")
	}
}

func TestRenderNavigationHierarchy(t *testing.T) {
	v, rows := mushroomView(t, 2000)
	tree, err := Build(v, rows, "Class", mushCandidates, Options{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := tree.Render()
	if !strings.Contains(out, tree.Root.SplitAttr+" = ") {
		t.Errorf("render missing root split:\n%s", out)
	}
	if !strings.Contains(out, "rows,") {
		t.Errorf("render missing counts:\n%s", out)
	}
	// Category counts at depth one sum to the total.
	total := 0
	for _, c := range tree.Root.Children {
		total += c.Count
	}
	if total != tree.Root.Count {
		t.Errorf("child counts %d != root count %d", total, tree.Root.Count)
	}
}

func TestClassifyUnseenValueFallsBack(t *testing.T) {
	// Train on rows where the split attribute never takes one value,
	// then classify a row carrying it: must fall back to majority, not
	// panic.
	tbl := dataset.NewTable("t", dataset.Schema{
		{Name: "C", Kind: dataset.Categorical, Queriable: true},
		{Name: "X", Kind: dataset.Categorical, Queriable: true},
		{Name: "Y", Kind: dataset.Categorical, Queriable: true},
	})
	for i := 0; i < 120; i++ {
		x := []string{"x0", "x1"}[i%2]
		tbl.MustAppendRow("c"+x[1:], x, "y")
	}
	tbl.MustAppendRow("c0", "xNEW", "y") // held out of training
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	train := dataset.AllRows(120)
	tree, err := Build(v, train, "C", []string{"X", "Y"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.SplitAttr != "X" {
		t.Fatalf("root split = %q", tree.Root.SplitAttr)
	}
	got := tree.Classify(120)
	if got != "c0" && got != "c1" {
		t.Errorf("unseen value classified as %q", got)
	}
	if tree.Accuracy(nil) != 0 {
		t.Error("accuracy of empty rows should be 0")
	}
}
