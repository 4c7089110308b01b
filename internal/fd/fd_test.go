package fd

import (
	"fmt"
	"math"
	"testing"

	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

func carsView(t *testing.T, n int) (*dataview.View, dataset.RowSet) {
	t.Helper()
	tbl := datagen.UsedCars(n, 1)
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return v, dataset.AllRows(tbl.NumRows())
}

func TestG3ExactDependency(t *testing.T) {
	v, rows := carsView(t, 4000)
	// Model determines Make exactly by construction.
	g3, err := G3(v, rows, "Model", "Make")
	if err != nil {
		t.Fatal(err)
	}
	if g3 != 0 {
		t.Errorf("g3(Model -> Make) = %g, want 0", g3)
	}
	// The reverse does not hold: a make sells many models.
	back, err := G3(v, rows, "Make", "Model")
	if err != nil {
		t.Fatal(err)
	}
	if back < 0.3 {
		t.Errorf("g3(Make -> Model) = %g, want substantial", back)
	}
	// Color determines nothing.
	noise, err := G3(v, rows, "Color", "Make")
	if err != nil {
		t.Fatal(err)
	}
	if noise < 0.3 {
		t.Errorf("g3(Color -> Make) = %g, want large", noise)
	}
}

func TestG3Errors(t *testing.T) {
	v, rows := carsView(t, 100)
	if _, err := G3(v, rows, "Make", "Make"); err == nil {
		t.Error("X -> X: want error")
	}
	if _, err := G3(v, rows, "Nope", "Make"); err == nil {
		t.Error("unknown determinant: want error")
	}
	if _, err := G3(v, rows, "Make", "Nope"); err == nil {
		t.Error("unknown dependent: want error")
	}
	if _, err := G3(v, nil, "Model", "Make"); err == nil {
		t.Error("empty rows: want error")
	}
}

func TestDiscoverFindsModelMake(t *testing.T) {
	v, rows := carsView(t, 4000)
	deps, err := Discover(v, rows, []string{"Make", "Model", "BodyType", "Color"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range deps {
		if d.Determinant == "Model" && d.Dependent == "Make" {
			found = true
			if !d.Exact() {
				t.Errorf("Model -> Make should be exact: %v", d)
			}
			if d.String() != "Model -> Make" {
				t.Errorf("String() = %q", d.String())
			}
		}
		if d.Determinant == "Color" {
			t.Errorf("noise determinant reported: %v", d)
		}
	}
	if !found {
		t.Errorf("Model -> Make not discovered: %v", deps)
	}
	// Sorted ascending by error.
	for i := 1; i < len(deps); i++ {
		if deps[i].Error < deps[i-1].Error {
			t.Error("dependencies not error-sorted")
		}
	}
}

func TestDiscoverApproximate(t *testing.T) {
	v, rows := carsView(t, 4000)
	// Model determines BodyType exactly by construction.
	deps, err := Discover(v, rows, []string{"Model", "Engine", "BodyType"})
	if err != nil {
		t.Fatal(err)
	}
	bodyExact := false
	for _, d := range deps {
		if d.Determinant == "Model" && d.Dependent == "BodyType" && d.Exact() {
			bodyExact = true
		}
	}
	if !bodyExact {
		t.Errorf("Model -> BodyType not exact: %v", deps)
	}
	// X -> Y with bad violating rows out of 200 has g3 = bad/200: reported
	// with its g3 at 0.03, dropped at 0.06, either side of MaxError.
	for _, tc := range []struct {
		bad  int
		want bool
	}{{6, true}, {12, false}} {
		var got *Dependency
		deps, err := Discover(approxView(t, tc.bad), dataset.AllRows(200), []string{"X", "Y"})
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range deps {
			if d.Determinant == "X" && d.Dependent == "Y" {
				got = &deps[i]
			}
		}
		if (got != nil) != tc.want {
			t.Fatalf("bad=%d: X -> Y reported = %v, want %v (%v)", tc.bad, got != nil, tc.want, deps)
		}
		if got == nil {
			continue
		}
		if want := float64(tc.bad) / 200; math.Abs(got.Error-want) > 1e-12 {
			t.Errorf("bad=%d: g3 = %v, want %v", tc.bad, got.Error, want)
		}
		if s := got.String(); s != "X -> Y (g3=0.0300)" {
			t.Errorf("approximate dependency renders as %q", s)
		}
	}
}

// approxView builds 200 rows where Y is a function of X's ten values,
// except that the first bad rows carry another X value's Y.
func approxView(t *testing.T, bad int) *dataview.View {
	t.Helper()
	tbl := dataset.NewTable("t", dataset.Schema{
		{Name: "X", Kind: dataset.Categorical, Queriable: true},
		{Name: "Y", Kind: dataset.Categorical, Queriable: true},
	})
	for i := 0; i < 200; i++ {
		y := i % 10
		if i < bad {
			y = (y + 1) % 10
		}
		tbl.MustAppendRow(fmt.Sprint("x", i%10), fmt.Sprint("y", y))
	}
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestDiscoverSkipsDegenerates(t *testing.T) {
	tbl := dataset.NewTable("t", dataset.Schema{
		{Name: "Const", Kind: dataset.Categorical, Queriable: true},
		{Name: "Key", Kind: dataset.Categorical, Queriable: true},
		{Name: "A", Kind: dataset.Categorical, Queriable: true},
		{Name: "B", Kind: dataset.Categorical, Queriable: true},
	})
	for i := 0; i < 100; i++ {
		a := "a0"
		if i%2 == 0 {
			a = "a1"
		}
		tbl.MustAppendRow("c", key(i), a, "b"+a[1:])
	}
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	deps, err := Discover(v, dataset.AllRows(100), []string{"Const", "Key", "A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deps {
		if d.Determinant == "Const" {
			t.Errorf("constant column as determinant: %v", d)
		}
		if d.Determinant == "Key" {
			t.Errorf("key column as determinant: %v", d)
		}
		if d.Dependent == "Const" {
			t.Errorf("constant column as dependent (vacuous): %v", d)
		}
	}
	// A <-> B is a real mutual dependency and must be found both ways.
	both := 0
	for _, d := range deps {
		if (d.Determinant == "A" && d.Dependent == "B") || (d.Determinant == "B" && d.Dependent == "A") {
			both++
		}
	}
	if both != 2 {
		t.Errorf("A<->B not fully discovered: %v", deps)
	}
}

func key(i int) string { return string(rune('a'+i/26)) + string(rune('a'+i%26)) }

func TestDiscoverErrors(t *testing.T) {
	v, rows := carsView(t, 100)
	if _, err := Discover(v, rows, []string{"Make"}); err == nil {
		t.Error("one attribute: want error")
	}
	if _, err := Discover(v, nil, []string{"Make", "Model"}); err == nil {
		t.Error("no rows: want error")
	}
	if _, err := Discover(v, rows, []string{"Make", "Nope"}); err == nil {
		t.Error("unknown attribute: want error")
	}
}

func TestCorrelations(t *testing.T) {
	v, rows := carsView(t, 4000)
	corrs, err := Correlations(v, rows, []string{"Make", "Model", "Engine", "FuelEconomy", "Color"})
	if err != nil {
		t.Fatal(err)
	}
	if len(corrs) == 0 {
		t.Fatal("no correlations found")
	}
	// Strongest should involve Model (which determines nearly everything).
	if corrs[0].A != "Model" && corrs[0].B != "Model" {
		t.Errorf("strongest correlation = %+v, want one involving Model", corrs[0])
	}
	// Color must not correlate with anything.
	for _, c := range corrs {
		if c.A == "Color" || c.B == "Color" {
			t.Errorf("noise correlation reported: %+v", c)
		}
		if c.CramerV < 0.1 || c.PValue > 0.01 {
			t.Errorf("weak correlation reported: %+v", c)
		}
	}
	// Engine-FuelEconomy is a planted physical correlation.
	found := false
	for _, c := range corrs {
		if (c.A == "Engine" && c.B == "FuelEconomy") || (c.A == "FuelEconomy" && c.B == "Engine") {
			found = true
		}
	}
	if !found {
		t.Errorf("Engine-FuelEconomy not found: %+v", corrs)
	}
	// Sorted by descending effect size.
	for i := 1; i < len(corrs); i++ {
		if corrs[i].CramerV > corrs[i-1].CramerV {
			t.Error("correlations not sorted")
		}
	}
}

func TestCorrelationsErrors(t *testing.T) {
	v, rows := carsView(t, 100)
	if _, err := Correlations(v, rows, []string{"Make"}); err == nil {
		t.Error("one attribute: want error")
	}
	if _, err := Correlations(v, nil, []string{"Make", "Model"}); err == nil {
		t.Error("no rows: want error")
	}
	if _, err := Correlations(v, rows, []string{"Make", "Nope"}); err == nil {
		t.Error("unknown attribute: want error")
	}
}

// nanCarsView appends rows with a NaN numeric cell (the missing-value
// code -1) to the fixture, reproducing a live-ingested table with null
// cells. Discovery over numeric attributes must skip those cells, not
// index by -1.
func nanCarsView(t *testing.T, n int) (*dataview.View, dataset.RowSet) {
	t.Helper()
	tbl := datagen.UsedCars(n, 1)
	row := make([]any, len(tbl.Schema()))
	for i, a := range tbl.Schema() {
		if a.Kind == dataset.Categorical {
			row[i] = tbl.Cat(i).Value(0)
		} else {
			row[i] = math.NaN()
		}
	}
	for i := 0; i < 5; i++ {
		tbl.MustAppendRow(row...)
	}
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return v, dataset.AllRows(tbl.NumRows())
}

// TestDiscoverSkipsNaNCells pins the ingest regression: G3, Discover,
// and Correlations over a table with NaN numeric cells must not panic
// (codes are -1) and must score as if the NaN rows were absent.
func TestDiscoverSkipsNaNCells(t *testing.T) {
	v, rows := nanCarsView(t, 1000)
	attrs := []string{"Make", "Model", "Price", "Year"}
	if _, err := Discover(v, rows, attrs); err != nil {
		t.Fatalf("Discover over NaN cells: %v", err)
	}
	if _, err := Correlations(v, rows, attrs); err != nil {
		t.Fatalf("Correlations over NaN cells: %v", err)
	}
	// g3 must match the same dependency computed without the NaN rows.
	withNaN, err := G3(v, rows, "Price", "Make")
	if err != nil {
		t.Fatal(err)
	}
	clean := rows[:1000]
	without, err := G3(v, clean, "Price", "Make")
	if err != nil {
		t.Fatal(err)
	}
	if withNaN != without {
		t.Errorf("g3 with NaN rows = %g, without = %g; NaN cells must not count", withNaN, without)
	}
}
