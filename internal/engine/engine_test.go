package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dbexplorer/internal/dataset"
)

func carsTable(t *testing.T, n int, seed int64) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := dataset.NewTable("UsedCars", dataset.Schema{
		{Name: "Make", Kind: dataset.Categorical, Queriable: true},
		{Name: "BodyType", Kind: dataset.Categorical, Queriable: true},
		{Name: "Engine", Kind: dataset.Categorical, Queriable: true},
		{Name: "Price", Kind: dataset.Numeric, Queriable: true},
		{Name: "Mileage", Kind: dataset.Numeric, Queriable: true},
	})
	makes := []string{"Ford", "Jeep", "Chevrolet"}
	for i := 0; i < n; i++ {
		mk := makes[rng.Intn(3)]
		body := "SUV"
		if rng.Intn(3) == 0 {
			body = "Sedan"
		}
		eng := "V6"
		price := 25000 + rng.Float64()*5000
		if mk == "Jeep" {
			eng = "V8"
			price += 8000
		}
		tbl.MustAppendRow(mk, body, eng, price, 5000+rng.Float64()*40000)
	}
	return tbl
}

func newSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession()
	s.Seed = 7
	if err := s.Register(carsTable(t, 400, 1)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegisterErrors(t *testing.T) {
	s := NewSession()
	tbl := carsTable(t, 10, 2)
	if err := s.Register(tbl); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(tbl); err == nil {
		t.Error("duplicate register: want error")
	}
	if err := s.RegisterAs("", tbl); err == nil {
		t.Error("empty name: want error")
	}
	empty := dataset.NewTable("empty", dataset.Schema{{Name: "A", Kind: dataset.Numeric}})
	if err := s.Register(empty); err == nil {
		t.Error("empty table: want error")
	}
	if _, err := s.Table("usedcars"); err != nil {
		t.Errorf("case-insensitive lookup: %v", err)
	}
	if _, err := s.Table("nope"); err == nil {
		t.Error("unknown table: want error")
	}
}

func TestExecSelect(t *testing.T) {
	s := newSession(t)
	r, err := s.Exec("SELECT * FROM UsedCars WHERE Make = Jeep AND Price > 30K")
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindRows {
		t.Fatalf("kind = %d", r.Kind)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	mk, _ := r.Table.CatByName("Make")
	pr, _ := r.Table.NumByName("Price")
	for _, row := range r.Rows {
		if mk.Value(row) != "Jeep" || pr.Value(row) <= 30000 {
			t.Fatalf("row %d violates predicate", row)
		}
	}
	// Projection and LIMIT.
	r, err = s.Exec("SELECT Make, Price FROM UsedCars LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 || len(r.Columns) != 2 {
		t.Errorf("limit/projection: %d rows, cols %v", len(r.Rows), r.Columns)
	}
	out := RenderResult(r, 0)
	if !strings.Contains(out, "Make | Price") || !strings.Contains(out, "(5 rows)") {
		t.Errorf("render:\n%s", out)
	}
}

func TestExecSelectErrors(t *testing.T) {
	s := newSession(t)
	if _, err := s.Exec("SELECT * FROM Nope"); err == nil {
		t.Error("unknown table: want error")
	}
	if _, err := s.Exec("SELECT Nope FROM UsedCars"); err == nil {
		t.Error("unknown column: want error")
	}
	if _, err := s.Exec("SELECT * FROM UsedCars WHERE Nope = 1"); err == nil {
		t.Error("unknown attribute in WHERE: want error")
	}
	if _, err := s.Exec("SELECT * FROM UsedCars WHERE Price = abc"); err == nil {
		t.Error("non-numeric literal on numeric column: want error")
	}
	if _, err := s.Exec("totally not sql"); err == nil {
		t.Error("parse error: want error")
	}
}

func TestExecCreateCADViewAndOps(t *testing.T) {
	s := newSession(t)
	r, err := s.Exec(`CREATE CADVIEW CompareMakes AS
		SET pivot = Make
		SELECT Price
		FROM UsedCars
		WHERE BodyType = SUV
		LIMIT COLUMNS 3 IUNITS 2`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindView || r.View == nil {
		t.Fatalf("kind = %d", r.Kind)
	}
	if r.View.Name != "CompareMakes" || r.View.Pivot != "Make" {
		t.Errorf("view header: %+v", r.View)
	}
	if r.View.CompareAttrs[0] != "Price" {
		t.Errorf("explicit compare attr not first: %v", r.View.CompareAttrs)
	}
	if len(r.View.CompareAttrs) > 3 || r.View.K != 2 {
		t.Errorf("limits not applied: %v K=%d", r.View.CompareAttrs, r.View.K)
	}
	if _, err := s.View("comparemakes"); err != nil {
		t.Errorf("stored view lookup: %v", err)
	}

	// Highlight over the stored view.
	pv := r.View.Rows[0].Value
	hr, err := s.Exec("HIGHLIGHT SIMILAR IUNITS IN CompareMakes WHERE SIMILARITY(" + pv + ", 1) > 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if hr.Kind != KindHighlight || hr.Highlight == nil {
		t.Fatalf("highlight kind = %d", hr.Kind)
	}
	out := RenderResult(hr, 0)
	if !strings.Contains(out, "similar to") {
		t.Errorf("highlight render:\n%s", out)
	}

	// Reorder.
	rr, err := s.Exec("REORDER ROWS IN CompareMakes ORDER BY SIMILARITY(" + pv + ") DESC")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Kind != KindReorder || rr.View.Rows[0].Value != pv {
		t.Fatalf("reorder: %+v", rr.View.PivotValues())
	}
	if len(rr.Similarities) != len(rr.View.Rows) {
		t.Errorf("similarities = %d", len(rr.Similarities))
	}
	out = RenderResult(rr, 0)
	if !strings.Contains(out, "reordered") {
		t.Errorf("reorder render:\n%s", out)
	}
	// The stored view is replaced by the reordered one.
	v, _ := s.View("CompareMakes")
	if v.Rows[0].Value != pv {
		t.Error("stored view not updated by REORDER")
	}
}

func TestExecCreateCADViewOrderBy(t *testing.T) {
	s := newSession(t)
	r, err := s.Exec(`CREATE CADVIEW v AS SET pivot = Make SELECT Engine FROM UsedCars IUNITS 2 ORDER BY Price ASC`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.View.Rows {
		if len(row.IUnits) < 2 {
			continue
		}
		// With ascending price preference, earlier IUnits have scores
		// >= later ones by construction; spot-check monotonicity.
		if row.IUnits[0].Score < row.IUnits[1].Score {
			t.Errorf("ORDER BY Price ASC: row %s scores out of order", row.Value)
		}
	}
	if _, err := s.Exec(`CREATE CADVIEW v2 AS SET pivot = Make SELECT Engine FROM UsedCars ORDER BY Make ASC`); err == nil {
		t.Error("ORDER BY categorical attribute: want error")
	}
}

// TestExecCreateCADViewOrderByNullCells pins that a missing (null) cell
// in the ORDER BY attribute leaves the IUnit ranking intact: the cluster
// mean skips null cells, so no score is NaN and every pivot row keeps
// its IUnits. Price is not a Compare Attribute here, so every cluster
// holds rows without a price.
func TestExecCreateCADViewOrderByNullCells(t *testing.T) {
	base := carsTable(t, 2100, 3)
	tbl := dataset.NewTable("UsedCars", base.Schema())
	for r := 0; r < base.NumRows(); r++ {
		vals := make([]any, len(base.Schema()))
		for c := range vals {
			if cat := base.Cat(c); cat != nil {
				vals[c] = cat.Value(r)
			} else {
				vals[c] = base.Num(c).Value(r)
			}
		}
		if r%7 == 0 {
			vals[base.ColIndex("Price")] = math.NaN()
		}
		tbl.MustAppendRow(vals...)
	}
	price, _ := tbl.NumByName("Price")
	s := NewSession()
	s.Seed = 7
	if err := s.Register(tbl); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"ASC", "DESC"} {
		r, err := s.Exec(`CREATE CADVIEW v` + dir + ` AS SET pivot = Make SELECT BodyType, Mileage FROM UsedCars LIMIT COLUMNS 2 IUNITS 3 ORDER BY Price ` + dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.View.Rows) != 3 {
			t.Fatalf("ORDER BY Price %s: %d pivot rows, want 3", dir, len(r.View.Rows))
		}
		for _, row := range r.View.Rows {
			if len(row.IUnits) == 0 {
				t.Errorf("ORDER BY Price %s: pivot row %s has no IUnits", dir, row.Value)
			}
			for _, iu := range row.IUnits {
				// The score is the mean over the rows that have a price.
				var sum float64
				n := 0
				for _, r := range iu.Rows {
					if p := price.Value(r); !math.IsNaN(p) {
						sum += p
						n++
					}
				}
				want := sum / float64(n)
				if dir == "ASC" {
					want = 1 / (1 + want)
				}
				if math.Abs(iu.Score-want) > 1e-9*want {
					t.Errorf("ORDER BY Price %s: IUnit (%s, %d) scores %g, want %g", dir, row.Value, iu.Rank, iu.Score, want)
				}
			}
		}
	}
}

// TestExecCreateCADViewOrderByNegativeMeans pins ORDER BY ... ASC over
// an attribute whose cluster means are negative: temperatures from −8 to
// 21 must rank, lowest mean first, instead of failing on a negative or
// infinite preference score.
func TestExecCreateCADViewOrderByNegativeMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := dataset.NewTable("Temps", dataset.Schema{
		{Name: "City", Kind: dataset.Categorical, Queriable: true},
		{Name: "Season", Kind: dataset.Categorical, Queriable: true},
		{Name: "Temp", Kind: dataset.Numeric, Queriable: true},
	})
	cities := []string{"Oslo", "Rome"}
	seasons := []string{"Winter", "Spring", "Summer"}
	for i := 0; i < 400; i++ {
		city, season := rng.Intn(2), rng.Intn(3)
		temp := -8 + 10*float64(season) + 6*float64(city) + rng.Float64()*3
		tbl.MustAppendRow(cities[city], seasons[season], math.Min(temp, 21))
	}
	temp, _ := tbl.NumByName("Temp")
	s := NewSession()
	s.Seed = 1
	if err := s.Register(tbl); err != nil {
		t.Fatal(err)
	}
	r, err := s.Exec(`CREATE CADVIEW v AS SET pivot = City SELECT Season FROM Temps LIMIT COLUMNS 1 IUNITS 2 ORDER BY Temp ASC`)
	if err != nil {
		t.Fatal(err)
	}
	negative := false
	for _, row := range r.View.Rows {
		if len(row.IUnits) != 2 {
			t.Fatalf("pivot row %s has %d IUnits, want 2", row.Value, len(row.IUnits))
		}
		var means [2]float64
		for i, iu := range row.IUnits {
			for _, r := range iu.Rows {
				means[i] += temp.Value(r)
			}
			means[i] /= float64(len(iu.Rows))
			negative = negative || means[i] < 0
			if iu.Score < 0 || math.IsInf(iu.Score, 0) {
				t.Errorf("pivot row %s: IUnit %d scores %g for mean %g", row.Value, iu.Rank, iu.Score, means[i])
			}
		}
		if means[0] > means[1] {
			t.Errorf("pivot row %s: IUnit means %g then %g, want the lower first", row.Value, means[0], means[1])
		}
	}
	if !negative {
		t.Fatal("no IUnit has a negative mean; the table does not exercise the case")
	}
}

func TestExecCADViewErrors(t *testing.T) {
	s := newSession(t)
	if _, err := s.Exec("CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM Nope"); err == nil {
		t.Error("unknown table: want error")
	}
	if _, err := s.Exec("CREATE CADVIEW v AS SET pivot = Nope SELECT Price FROM UsedCars"); err == nil {
		t.Error("unknown pivot: want error")
	}
	if _, err := s.Exec("CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM UsedCars"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM UsedCars"); err == nil {
		t.Error("duplicate view name: want error")
	}
	if _, err := s.Exec("HIGHLIGHT SIMILAR IUNITS IN nope WHERE SIMILARITY(x, 1) > 2"); err == nil {
		t.Error("unknown view: want error")
	}
	if _, err := s.Exec("HIGHLIGHT SIMILAR IUNITS IN v WHERE SIMILARITY(NoSuchMake, 1) > 2"); err == nil {
		t.Error("unknown pivot value: want error")
	}
	if _, err := s.Exec("REORDER ROWS IN nope ORDER BY SIMILARITY(x)"); err == nil {
		t.Error("unknown view for reorder: want error")
	}
	if _, err := s.View("nope"); err == nil {
		t.Error("unknown view lookup: want error")
	}
}

func TestExecReorderAsc(t *testing.T) {
	s := newSession(t)
	r, err := s.Exec("CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM UsedCars IUNITS 2")
	if err != nil {
		t.Fatal(err)
	}
	ref := r.View.Rows[0].Value
	asc, err := s.Exec("REORDER ROWS IN v ORDER BY SIMILARITY(" + ref + ") ASC")
	if err != nil {
		t.Fatal(err)
	}
	// Least similar first: the reference row (distance 0) comes last.
	last := asc.View.Rows[len(asc.View.Rows)-1]
	if last.Value != ref {
		t.Errorf("ASC reorder: reference %q not last: %v", ref, asc.View.PivotValues())
	}
	for i := 1; i < len(asc.Similarities); i++ {
		if asc.Similarities[i].Distance > asc.Similarities[i-1].Distance {
			t.Error("ASC distances not non-increasing")
		}
	}
}

func TestExecSelectOrderBy(t *testing.T) {
	s := newSession(t)
	r, err := s.Exec("SELECT Make, Price FROM UsedCars ORDER BY Price DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := r.Table.NumByName("Price")
	for i := 1; i < len(r.Rows); i++ {
		if pr.Value(r.Rows[i]) > pr.Value(r.Rows[i-1]) {
			t.Error("ORDER BY Price DESC violated")
		}
	}
	// Multi-key: Make asc, then Price asc within a make.
	r, err = s.Exec("SELECT Make, Price FROM UsedCars ORDER BY Make ASC, Price ASC")
	if err != nil {
		t.Fatal(err)
	}
	mk, _ := r.Table.CatByName("Make")
	for i := 1; i < len(r.Rows); i++ {
		a, b := r.Rows[i-1], r.Rows[i]
		if mk.Value(a) > mk.Value(b) {
			t.Fatal("ORDER BY Make ASC violated")
		}
		if mk.Value(a) == mk.Value(b) && pr.Value(a) > pr.Value(b) {
			t.Fatal("secondary Price ASC violated")
		}
	}
	if _, err := s.Exec("SELECT * FROM UsedCars ORDER BY Nope"); err == nil {
		t.Error("ORDER BY unknown attribute: want error")
	}
}

func TestExecShowDescribeDrop(t *testing.T) {
	s := newSession(t)
	r, err := s.Exec("SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindMessage || !strings.Contains(r.Message, "UsedCars") {
		t.Errorf("SHOW TABLES = %+v", r)
	}
	if !strings.Contains(RenderResult(r, 0), "UsedCars") {
		t.Error("message render missing table")
	}
	r, err = s.Exec("SHOW CADVIEWS")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Message, "(none)") {
		t.Errorf("empty SHOW CADVIEWS = %q", r.Message)
	}
	if _, err := s.Exec("CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM UsedCars"); err != nil {
		t.Fatal(err)
	}
	r, _ = s.Exec("SHOW CADVIEWS")
	if !strings.Contains(r.Message, "v (pivot Make") {
		t.Errorf("SHOW CADVIEWS = %q", r.Message)
	}

	r, err = s.Exec("DESCRIBE UsedCars")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Make", "categorical", "Price", "numeric", "queriable", "min ", "max ", "mean "} {
		if !strings.Contains(r.Message, want) {
			t.Errorf("DESCRIBE missing %q:\n%s", want, r.Message)
		}
	}
	if _, err := s.Exec("DESCRIBE nope"); err == nil {
		t.Error("DESCRIBE unknown table: want error")
	}

	if _, err := s.Exec("DROP CADVIEW v"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.View("v"); err == nil {
		t.Error("dropped view still present")
	}
	if _, err := s.Exec("DROP CADVIEW v"); err == nil {
		t.Error("double drop: want error")
	}
	// The name is reusable after a drop.
	if _, err := s.Exec("CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM UsedCars"); err != nil {
		t.Errorf("recreate after drop: %v", err)
	}
}

func TestExecMultiTableJoin(t *testing.T) {
	s := newSession(t)
	makers := dataset.NewTable("Makers", dataset.Schema{
		{Name: "Make", Kind: dataset.Categorical, Queriable: true},
		{Name: "Country", Kind: dataset.Categorical, Queriable: true},
	})
	makers.MustAppendRow("Ford", "USA")
	makers.MustAppendRow("Jeep", "USA")
	makers.MustAppendRow("Chevrolet", "USA")
	if err := s.Register(makers); err != nil {
		t.Fatal(err)
	}
	r, err := s.Exec("SELECT Make, Country, Price FROM UsedCars, Makers WHERE Country = USA LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Errorf("rows = %d", len(r.Rows))
	}
	if r.Table.ColIndex("Country") < 0 || r.Table.ColIndex("Price") < 0 {
		t.Error("joined schema incomplete")
	}
	// CAD View over a join.
	rv, err := s.Exec("CREATE CADVIEW joined AS SET pivot = Country SELECT Price FROM UsedCars, Makers IUNITS 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rv.View.Rows) != 1 || rv.View.Rows[0].Value != "USA" {
		t.Errorf("join CAD view rows = %v", rv.View.PivotValues())
	}
	// Unknown table anywhere in the list errors.
	if _, err := s.Exec("SELECT * FROM UsedCars, Nope"); err == nil {
		t.Error("unknown second table: want error")
	}
	if _, err := s.Exec("SELECT * FROM Nope, Makers"); err == nil {
		t.Error("unknown first table: want error")
	}
	// Disjoint tables refuse to cross-product.
	disjoint := dataset.NewTable("Disjoint", dataset.Schema{
		{Name: "Zzz", Kind: dataset.Categorical, Queriable: true},
	})
	disjoint.MustAppendRow("z")
	if err := s.Register(disjoint); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SELECT * FROM UsedCars, Disjoint"); err == nil {
		t.Error("no shared columns: want error")
	}
}

func TestExecExplain(t *testing.T) {
	s := newSession(t)
	r, err := s.Exec(`EXPLAIN CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM UsedCars WHERE BodyType = SUV LIMIT COLUMNS 3 IUNITS 2`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindMessage {
		t.Fatalf("kind = %d", r.Kind)
	}
	for _, want := range []string{"EXPLAIN CADVIEW v", "result set:", "pivot Make:", "chi-square", "chosen Compare Attributes: Price", "timings:"} {
		if !strings.Contains(r.Message, want) {
			t.Errorf("explain missing %q:\n%s", want, r.Message)
		}
	}
	// EXPLAIN must not store the view.
	if _, err := s.View("v"); err == nil {
		t.Error("EXPLAIN stored the view")
	}
	// The pivot line counts the distinct Make cells of the rows the WHERE
	// keeps, counted here straight from a copy of the table. The first
	// result is under an eighth of the table, so dataview.Tally walks its
	// rows; the others are larger, so it intersects postings. Jeeps cost
	// 33K and up, so the Price filters keep two of the three makes.
	ref := carsTable(t, 400, 1)
	mk, price, body := ref.ColIndex("Make"), ref.ColIndex("Price"), ref.ColIndex("BodyType")
	for _, tc := range []struct {
		where  string
		keep   func(r int) bool
		walked bool
	}{
		{"Price < 25400", func(r int) bool { return ref.Num(price).Value(r) < 25400 }, true},
		{"Price < 31000", func(r int) bool { return ref.Num(price).Value(r) < 31000 }, false},
		{"BodyType = SUV", func(r int) bool { return ref.Cat(body).Value(r) == "SUV" }, false},
	} {
		kept, makes := 0, map[string]bool{}
		for r := 0; r < ref.NumRows(); r++ {
			if tc.keep(r) {
				kept++
				makes[ref.Cat(mk).Value(r)] = true
			}
		}
		if walked := kept < ref.NumRows()/8; walked != tc.walked {
			t.Fatalf("WHERE %s keeps %d of %d rows: walked = %v, want %v", tc.where, kept, ref.NumRows(), walked, tc.walked)
		}
		r, err := s.Exec(`EXPLAIN CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM UsedCars WHERE ` + tc.where + ` LIMIT COLUMNS 3 IUNITS 2`)
		if err != nil {
			t.Fatalf("WHERE %s: %v", tc.where, err)
		}
		want := fmt.Sprintf("result set: %d of %d tuples\npivot Make: %d values in result\n", kept, ref.NumRows(), len(makes))
		if !strings.Contains(r.Message, want) {
			t.Errorf("WHERE %s: explain missing %q:\n%s", tc.where, want, r.Message)
		}
	}
	// Empty result set explains without building.
	r, err = s.Exec(`EXPLAIN CREATE CADVIEW v2 AS SET pivot = Make SELECT Price FROM UsedCars WHERE Price > 9999K`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Message, "0 of") {
		t.Errorf("empty explain: %q", r.Message)
	}
	// Errors.
	if _, err := s.Exec("EXPLAIN CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM Nope"); err == nil {
		t.Error("unknown table: want error")
	}
	if _, err := s.Exec("EXPLAIN CREATE CADVIEW v AS SET pivot = Nope SELECT Price FROM UsedCars"); err == nil {
		t.Error("unknown pivot: want error")
	}
	if _, err := s.Exec("EXPLAIN SELECT * FROM UsedCars"); err == nil {
		t.Error("EXPLAIN of plain SELECT: want error")
	}
}

func TestExportImportViews(t *testing.T) {
	s := newSession(t)
	if _, err := s.Exec("CREATE CADVIEW v1 AS SET pivot = Make SELECT Price FROM UsedCars IUNITS 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE CADVIEW v2 AS SET pivot = Engine SELECT Price FROM UsedCars IUNITS 2"); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := s.ExportViews(&buf); err != nil {
		t.Fatal(err)
	}

	fresh := NewSession()
	if err := fresh.ImportViews(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	v1, err := fresh.View("v1")
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := s.View("v1")
	if RenderResult(&Result{Kind: KindView, View: v1}, 0) != RenderResult(&Result{Kind: KindView, View: orig}, 0) {
		t.Error("imported view renders differently")
	}
	// Similarity ops still work against the imported view.
	if _, err := fresh.Exec("REORDER ROWS IN v1 ORDER BY SIMILARITY(" + v1.Rows[0].Value + ") DESC"); err != nil {
		t.Errorf("reorder on imported view: %v", err)
	}
	// Collision rejected.
	if err := fresh.ImportViews(strings.NewReader(buf.String())); err == nil {
		t.Error("duplicate import: want error")
	}
	// Garbage rejected.
	if err := fresh.ImportViews(strings.NewReader("not json")); err == nil {
		t.Error("bad json: want error")
	}
	if err := fresh.ImportViews(strings.NewReader(`[{"pivot":"P","compareAttrs":[],"rows":[]}]`)); err == nil {
		t.Error("unnamed view: want error")
	}
}

func TestExecDeterministicViews(t *testing.T) {
	s1, s2 := newSession(t), newSession(t)
	q := "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM UsedCars IUNITS 3"
	r1, err := s1.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if RenderResult(r1, 0) != RenderResult(r2, 0) {
		t.Error("same seed and data produced different views")
	}
}

// TestCreateCADViewAfterAppend: the WHERE clause runs on the live table,
// so after an append CREATE CADVIEW and EXPLAIN must build over a view of
// the grown table, not over the view made at registration.
func TestCreateCADViewAfterAppend(t *testing.T) {
	tbl := carsTable(t, 400, 1)
	s := NewSession()
	if err := s.Register(tbl); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendBatch([][]any{
		{"Jeep", "SUV", "V8", 34000.0, 12000.0},
		{"Ford", "SUV", "V6", 26000.0, 30000.0},
	}); err != nil {
		t.Fatal(err)
	}
	suvs := 0
	for r := 0; r < tbl.NumRows(); r++ {
		if tbl.CellString(r, 1) == "SUV" {
			suvs++
		}
	}
	q := "CREATE CADVIEW grown AS SET pivot = Make SELECT Price FROM UsedCars WHERE BodyType = SUV"
	r, err := s.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, row := range r.View.Rows {
		total += row.Count
	}
	if total != suvs {
		t.Errorf("CAD View covers %d rows, the grown table has %d SUVs", total, suvs)
	}
	if _, err := s.Exec("EXPLAIN " + strings.Replace(q, "grown", "plan", 1)); err != nil {
		t.Fatal(err)
	}
}
