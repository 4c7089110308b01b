package dbexplorer_test

import (
	"strings"
	"testing"

	"dbexplorer"
)

func TestFacadeEndToEnd(t *testing.T) {
	cars := dbexplorer.UsedCars(3000, 1)
	sess := dbexplorer.NewSession()
	if err := sess.Register(cars); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec(`CREATE CADVIEW CompareMakes AS
		SET pivot = Make
		SELECT Price FROM UsedCars
		WHERE BodyType = SUV AND Make IN (Jeep, Ford, Chevrolet)
		LIMIT COLUMNS 4 IUNITS 2`)
	if err != nil {
		t.Fatal(err)
	}
	out := dbexplorer.RenderResult(res, 0)
	if !strings.Contains(out, "Jeep") || !strings.Contains(out, "IUnit 1") {
		t.Errorf("render:\n%s", out)
	}
	h, err := dbexplorer.HighlightSimilar(res.View, res.View.Rows[0].Value, 1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if dbexplorer.RenderCADView(res.View, h) == "" {
		t.Error("empty render")
	}
	re, sims, err := dbexplorer.ReorderRows(res.View, res.View.Rows[1].Value)
	if err != nil {
		t.Fatal(err)
	}
	if re.Rows[0].Value != res.View.Rows[1].Value || len(sims) != len(re.Rows) {
		t.Error("reorder wrong")
	}
}

func TestFacadeProgrammaticAPI(t *testing.T) {
	tbl := dbexplorer.NewTable("t", dbexplorer.Schema{
		{Name: "A", Kind: dbexplorer.Categorical, Queriable: true},
		{Name: "B", Kind: dbexplorer.Numeric, Queriable: true},
	})
	for i := 0; i < 60; i++ {
		v := "x"
		price := 10.0
		if i%2 == 0 {
			v = "y"
			price = 100.0
		}
		tbl.MustAppendRow(v, price+float64(i%5))
	}
	view, err := dbexplorer.NewView(tbl)
	if err != nil {
		t.Fatal(err)
	}
	rows := dbexplorer.AllRows(tbl.NumRows())
	cad, tm, err := dbexplorer.BuildCADView(view, rows, dbexplorer.CADConfig{Pivot: "A", K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cad.Rows) != 2 || tm.Total() <= 0 {
		t.Errorf("rows=%d timings=%+v", len(cad.Rows), tm)
	}
	d := dbexplorer.Summarize(view, rows, true)
	if d.Count("A", "x") != 30 {
		t.Errorf("digest count = %d", d.Count("A", "x"))
	}
	fs := dbexplorer.NewFacetSession(view, rows)
	if err := fs.Select("A", "x"); err != nil {
		t.Fatal(err)
	}
	if fs.Count() != 30 {
		t.Errorf("facet count = %d", fs.Count())
	}
	tp := dbexplorer.NewTPFacet(view, rows)
	if _, err := tp.BuildCADView(dbexplorer.CADConfig{Pivot: "A", Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCSVRoundTrip(t *testing.T) {
	in := "A,B\nx,1\ny,2\n"
	tbl, err := dbexplorer.ReadCSV("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 {
		t.Errorf("rows = %d", tbl.NumRows())
	}
	if _, err := dbexplorer.ReadCSVFile("t", "/nonexistent/file.csv"); err == nil {
		t.Error("missing file: want error")
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(dbexplorer.Experiments()) != 15 {
		t.Errorf("experiments = %d, want 15", len(dbexplorer.Experiments()))
	}
	out, err := dbexplorer.RunExperiment("table1", dbexplorer.ExperimentConfig{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Chevrolet") {
		t.Error("table1 output missing Chevrolet")
	}
	if _, err := dbexplorer.RunExperiment("nope", dbexplorer.ExperimentConfig{}); err == nil {
		t.Error("unknown experiment: want error")
	}
}

func TestFacadeInteractionExtensions(t *testing.T) {
	cars := dbexplorer.UsedCars(4000, 1)
	view, err := dbexplorer.NewView(cars)
	if err != nil {
		t.Fatal(err)
	}
	rows := dbexplorer.AllRows(cars.NumRows())
	attrs := []string{"Make", "Model", "BodyType", "Engine", "Color"}

	deps, err := dbexplorer.DiscoverFDs(view, rows, attrs)
	if err != nil {
		t.Fatal(err)
	}
	foundFD := false
	for _, d := range deps {
		if d.Determinant == "Model" && d.Dependent == "Make" && d.Exact() {
			foundFD = true
		}
	}
	if !foundFD {
		t.Errorf("Model -> Make not discovered: %v", deps)
	}

	corrs, err := dbexplorer.DiscoverCorrelations(view, rows, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrs) == 0 {
		t.Error("no correlations found")
	}

	net, err := dbexplorer.LearnBayesNet(view, rows, attrs, dbexplorer.BayesNetOptions{Root: "Make"})
	if err != nil {
		t.Fatal(err)
	}
	if net.Root != "Make" || net.Parent("Model") != "Make" {
		t.Errorf("network structure: root=%q parent(Model)=%q", net.Root, net.Parent("Model"))
	}

	tree, err := dbexplorer.BuildDecisionTree(view, rows, "Make", []string{"Model", "Engine"}, dbexplorer.DecisionTreeOptions{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.SplitAttr != "Model" {
		t.Errorf("tree root split = %q, want Model", tree.Root.SplitAttr)
	}
	if acc := tree.Accuracy(rows); acc < 0.99 {
		t.Errorf("Model-split accuracy = %.3f", acc)
	}
}

func TestFacadeNewStatements(t *testing.T) {
	sess := dbexplorer.NewSession()
	if err := sess.Register(dbexplorer.UsedCars(500, 1)); err != nil {
		t.Fatal(err)
	}
	r, err := sess.Exec("SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dbexplorer.RenderResult(r, 0), "UsedCars") {
		t.Error("SHOW TABLES missing table")
	}
	r, err = sess.Exec("SELECT Make, Price FROM UsedCars ORDER BY Price ASC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Errorf("rows = %d", len(r.Rows))
	}
}

func TestFacadeMushroom(t *testing.T) {
	m := dbexplorer.Mushroom(1)
	if m.NumRows() != 8124 || m.NumCols() != 23 {
		t.Errorf("mushroom dims = (%d,%d)", m.NumRows(), m.NumCols())
	}
}

// TestBuildCADViewRowsPastView: a view is a row snapshot. Rows appended
// after it are outside it, and the build reports them as an error.
func TestBuildCADViewRowsPastView(t *testing.T) {
	cars := dbexplorer.UsedCars(2000, 1)
	view, err := dbexplorer.NewView(cars)
	if err != nil {
		t.Fatal(err)
	}
	if err := cars.AppendBatch(tableRows(cars, 0, 10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dbexplorer.BuildCADView(view, dbexplorer.AllRows(cars.NumRows()), dbexplorer.CADConfig{Pivot: "Make"}); err == nil {
		t.Fatal("rows past the view's snapshot: want an error")
	}
}
