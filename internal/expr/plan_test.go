package expr

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dbexplorer/internal/dataset"
)

// skewTable builds a table whose Make frequencies are wildly skewed so
// the planner's cheapest-first choice is unambiguous: "Rare" matches 2
// rows, "Mid" 60, "Common" everything else.
func skewTable(n int) *dataset.Table {
	t := dataset.NewTable("skew", dataset.Schema{
		{Name: "Make", Kind: dataset.Categorical, Queriable: true},
		{Name: "Price", Kind: dataset.Numeric, Queriable: true},
	})
	for i := 0; i < n; i++ {
		make_ := "Common"
		switch {
		case i < 2:
			make_ = "Rare"
		case i < 62:
			make_ = "Mid"
		}
		t.MustAppendRow(make_, float64(i))
	}
	return t
}

// TestEstimatesAreExactForLeaves: every leaf estimate must equal the
// true cardinality — categorical via dictionary frequencies, numeric via
// binary searches — since exact leaves are what makes the And ordering
// trustworthy.
func TestEstimatesAreExactForLeaves(t *testing.T) {
	tbl := skewTable(1000)
	ix := tbl.Index()
	leaves := []Expr{
		&Cmp{Attr: "Make", Op: Eq, Str: "Rare"},
		&Cmp{Attr: "Make", Op: Eq, Str: "Mid"},
		&Cmp{Attr: "Make", Op: Ne, Str: "Common"},
		&Cmp{Attr: "Make", Op: Eq, Str: "Absent"},
		&In{Attr: "Make", Values: []string{"Rare", "Mid"}},
		&Cmp{Attr: "Price", Op: Lt, Num: 100},
		&Cmp{Attr: "Price", Op: Ge, Num: 900},
		&Cmp{Attr: "Price", Op: Eq, Num: 500},
		&Between{Attr: "Price", Lo: 10, Hi: 19},
	}
	for _, leaf := range leaves {
		c, err := Compile(tbl, leaf)
		if err != nil {
			t.Fatalf("%s: %v", leaf.String(), err)
		}
		bm, err := c.Bitmap()
		if err != nil {
			t.Fatal(err)
		}
		if est := c.estimate(ix, leaf); est != bm.Len() {
			t.Errorf("%s: estimate %d, actual %d", leaf.String(), est, bm.Len())
		}
	}
}

// TestAndOrderedCheapestFirst: the And evaluation (and its EXPLAIN
// rendering) must visit children ascending by estimated cardinality, not
// in source order.
func TestAndOrderedCheapestFirst(t *testing.T) {
	tbl := skewTable(1000)
	e := &And{Kids: []Expr{
		&Cmp{Attr: "Make", Op: Eq, Str: "Common"}, // est 938
		&Cmp{Attr: "Price", Op: Lt, Num: 500},     // est 500
		&Cmp{Attr: "Make", Op: Eq, Str: "Rare"},   // est 2
	}}
	c, err := Compile(tbl, e)
	if err != nil {
		t.Fatal(err)
	}
	plan := c.Explain()
	if !strings.Contains(plan, "children cheapest-first") {
		t.Fatalf("plan does not announce cost ordering:\n%s", plan)
	}
	iRare := strings.Index(plan, "Rare")
	iPrice := strings.Index(plan, "Price")
	iCommon := strings.Index(plan, "Common")
	if iRare < 0 || iPrice < 0 || iCommon < 0 || !(iRare < iPrice && iPrice < iCommon) {
		t.Fatalf("children not cheapest-first:\n%s", plan)
	}
	if !strings.Contains(plan, "(est 2 rows)") {
		t.Fatalf("plan missing exact leaf estimate:\n%s", plan)
	}
	// Reordering must not change the result: compare with the row loop
	// on the same tree.
	got, err := c.Select(dataset.AllRows(tbl.NumRows()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := evalRows(tbl, dataset.AllRows(tbl.NumRows()), e)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cost-ordered And diverged from interpreter")
	}
}

// TestAndShortCircuitsOnEmpty: an impossible leaf sorts first (est 0)
// and empties the accumulator, so the remaining children are skipped —
// the result must still be the interpreter's empty set, and expensive
// siblings must not have forced their posting builds.
func TestAndShortCircuitsOnEmpty(t *testing.T) {
	tbl := skewTable(1000)
	e := &And{Kids: []Expr{
		&Cmp{Attr: "Price", Op: Lt, Num: 500},
		&Cmp{Attr: "Make", Op: Eq, Str: "Absent"},
	}}
	c, err := Compile(tbl, e)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := c.Bitmap()
	if err != nil {
		t.Fatal(err)
	}
	if bm.Len() != 0 {
		t.Fatalf("impossible conjunction returned %d rows", bm.Len())
	}
	want, err := evalRows(tbl, dataset.AllRows(tbl.NumRows()), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 0 {
		t.Fatalf("row loop disagrees: %d rows", len(want))
	}
}

// TestExplainForms covers the nil (select-everything) rendering and a
// nested plan tree.
func TestExplainForms(t *testing.T) {
	tbl := skewTable(10)
	c, err := Compile(tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Explain(); got != "true (select everything)" {
		t.Fatalf("nil plan explain = %q", got)
	}
	// A nested tree renders one line per node with estimates.
	c, err = Compile(tbl, &Or{Kids: []Expr{
		&Not{Kid: &Cmp{Attr: "Make", Op: Eq, Str: "Rare"}},
		&Between{Attr: "Price", Lo: 0, Hi: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	plan := c.Explain()
	for _, want := range []string{"OR (est", "NOT (est", "est 5 rows"} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}
}

// TestCostOrderingEquivalenceRandom re-runs the central compiled-vs-
// interpreted equivalence on deep random And-heavy trees, so planner
// reordering and short-circuiting face duplicate leaves, impossible
// branches, and nested Not/Or on every shape.
func TestCostOrderingEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tbl := equivTable(700, 99)
	all := dataset.AllRows(tbl.NumRows())
	for trial := 0; trial < 150; trial++ {
		kids := make([]Expr, 2+rng.Intn(4))
		for i := range kids {
			kids[i] = randomExpr(rng, 2)
		}
		e := &And{Kids: kids}
		c, err := Compile(tbl, e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Select(all)
		if err != nil {
			t.Fatal(err)
		}
		want, err := evalRows(tbl, all, e)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: planner diverged from the row loop on %s", trial, e.String())
		}
	}
}
