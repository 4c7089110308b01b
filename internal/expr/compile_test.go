package expr

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dbexplorer/internal/dataset"
)

// evalRows is the row-at-a-time interpreter the compiled plans are pinned
// to: validate once, then keep every input row on which Expr.Eval holds,
// in input order.
func evalRows(t *dataset.Table, rows dataset.RowSet, e Expr) (dataset.RowSet, error) {
	if e == nil {
		return rows.Clone(), nil
	}
	if err := e.Validate(t); err != nil {
		return nil, err
	}
	out := dataset.RowSet{}
	for _, r := range rows {
		ok, err := e.Eval(t, r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// equivTable builds a table with categorical and numeric columns,
// including NaN cells and duplicated values, so compiled bitmaps face
// the same edge cases the interpreter does.
func equivTable(n int, seed int64) *dataset.Table {
	t := dataset.NewTable("equiv", dataset.Schema{
		{Name: "Make", Kind: dataset.Categorical, Queriable: true},
		{Name: "Fuel", Kind: dataset.Categorical, Queriable: true},
		{Name: "Price", Kind: dataset.Numeric, Queriable: true},
		{Name: "Miles", Kind: dataset.Numeric, Queriable: true},
	})
	rng := rand.New(rand.NewSource(seed))
	makes := []string{"Ford", "Jeep", "Toyota", "Honda", "BMW"}
	fuels := []string{"Gas", "Diesel", "Hybrid"}
	for i := 0; i < n; i++ {
		price := float64(rng.Intn(30)) * 997
		if rng.Intn(20) == 0 {
			price = math.NaN()
		}
		t.MustAppendRow(
			makes[rng.Intn(len(makes))],
			fuels[rng.Intn(len(fuels))],
			price,
			float64(rng.Intn(200000)),
		)
	}
	return t
}

// randomExpr generates a random predicate tree over equivTable's schema.
// depth bounds the nesting; leaves mix all comparison forms, including
// constants absent from the dictionaries.
func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(5) {
		case 0:
			makes := []string{"Ford", "Jeep", "Toyota", "Honda", "BMW", "Absent"}
			op := Eq
			if rng.Intn(2) == 0 {
				op = Ne
			}
			return &Cmp{Attr: "Make", Op: op, Str: makes[rng.Intn(len(makes))]}
		case 1:
			ops := []CmpOp{Eq, Ne, Lt, Le, Gt, Ge}
			return &Cmp{Attr: "Price", Op: ops[rng.Intn(len(ops))], Num: float64(rng.Intn(32)) * 997}
		case 2:
			lo := float64(rng.Intn(25)) * 997
			return &Between{Attr: "Price", Lo: lo, Hi: lo + float64(rng.Intn(8))*997}
		case 3:
			all := []string{"Gas", "Diesel", "Hybrid", "Coal"}
			k := 1 + rng.Intn(len(all))
			return &In{Attr: "Fuel", Values: all[:k]}
		default:
			return &Cmp{Attr: "Miles", Op: Lt, Num: float64(rng.Intn(200000))}
		}
	}
	switch rng.Intn(3) {
	case 0:
		kids := make([]Expr, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = randomExpr(rng, depth-1)
		}
		return &And{Kids: kids}
	case 1:
		kids := make([]Expr, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = randomExpr(rng, depth-1)
		}
		return &Or{Kids: kids}
	default:
		return &Not{Kid: randomExpr(rng, depth-1)}
	}
}

// TestCompiledSelectMatchesInterpreter is the central equivalence
// property: on random expressions, random tables, and random input row
// sets, the compiled bitmap path returns exactly the interpreter's rows.
func TestCompiledSelectMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := equivTable(800, 7)
	all := dataset.AllRows(tbl.NumRows())
	for trial := 0; trial < 300; trial++ {
		e := randomExpr(rng, 3)
		// Alternate between the full universe and a random subset, which
		// exercises both the ToRowSet fast path and the Contains filter.
		rows := all
		if trial%2 == 1 {
			rows = rows[:0:0]
			for r := 0; r < tbl.NumRows(); r++ {
				if rng.Intn(3) == 0 {
					rows = append(rows, r)
				}
			}
		}
		want, err := evalRows(tbl, rows, e)
		if err != nil {
			t.Fatalf("trial %d: interpreter failed on %s: %v", trial, e, err)
		}
		got, err := Select(tbl, rows, e)
		if err != nil {
			t.Fatalf("trial %d: compiled failed on %s: %v", trial, e, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: %s\ncompiled %d rows, interpreter %d rows", trial, e, len(got), len(want))
		}
	}
}

func TestCompileNilAndVacuous(t *testing.T) {
	tbl := equivTable(50, 1)
	rows := dataset.RowSet{3, 17, 40}
	got, err := Select(tbl, rows, nil)
	if err != nil || !reflect.DeepEqual(got, rows) {
		t.Fatalf("nil expr: got %v, %v", got, err)
	}
	// Empty AND is vacuously true, empty OR vacuously false — matching
	// the interpreter's fold identities.
	gotAnd, err := Select(tbl, rows, &And{})
	if err != nil || !reflect.DeepEqual(gotAnd, rows) {
		t.Fatalf("empty AND: got %v, %v", gotAnd, err)
	}
	gotOr, err := Select(tbl, rows, &Or{})
	if err != nil || len(gotOr) != 0 {
		t.Fatalf("empty OR: got %v, %v", gotOr, err)
	}
}

// oddRows is an Expr foreign to this package.
type oddRows struct{}

func (oddRows) Eval(t *dataset.Table, row int) (bool, error) { return row%2 == 1, nil }
func (oddRows) Validate(t *dataset.Table) error              { return nil }
func (oddRows) String() string                               { return "oddRows" }

// TestCompileValidationErrors: a numeric comparison with an operator
// outside Eq..Ge and a tree holding a node type from outside this
// package are rejected when the predicate is compiled, even over an
// empty row set, instead of being left to a per-row evaluation.
func TestCompileValidationErrors(t *testing.T) {
	tbl := equivTable(10, 2)
	for name, e := range map[string]Expr{
		"numeric-bad-op":     &Cmp{Attr: "Price", Op: CmpOp(9), Num: 1},
		"categorical-bad-op": &Cmp{Attr: "Make", Op: CmpOp(9), Str: "Ford"},
		"foreign":            oddRows{},
		"nested-foreign":     &And{Kids: []Expr{&Cmp{Attr: "Make", Op: Eq, Str: "Ford"}, &Not{Kid: oddRows{}}}},
	} {
		if _, err := Select(tbl, nil, e); err == nil {
			t.Errorf("%s: Select returned no error", name)
		}
		if _, err := Compile(tbl, e); err == nil {
			t.Errorf("%s: Compile returned no error", name)
		}
	}
}

// TestCompileUnknownAttrError pins error parity with the row loop.
func TestCompileUnknownAttrError(t *testing.T) {
	tbl := equivTable(10, 3)
	e := &Cmp{Attr: "Nope", Op: Eq, Str: "x"}
	_, errC := Select(tbl, nil, e)
	_, errI := evalRows(tbl, nil, e)
	if errC == nil || errI == nil || errC.Error() != errI.Error() {
		t.Fatalf("error mismatch: compiled %v, row loop %v", errC, errI)
	}
}

// TestBindRefreshAfterAppend: a constant absent at first evaluation must
// be found after appends intern it, on both paths.
func TestBindRefreshAfterAppend(t *testing.T) {
	tbl := dataset.NewTable("grow", dataset.Schema{
		{Name: "Make", Kind: dataset.Categorical, Queriable: true},
	})
	tbl.MustAppendRow("Ford")
	e := &Cmp{Attr: "Make", Op: Eq, Str: "Jeep"}
	got, err := Select(tbl, dataset.AllRows(tbl.NumRows()), e)
	if err != nil || len(got) != 0 {
		t.Fatalf("before append: %v, %v", got, err)
	}
	tbl.MustAppendRow("Jeep")
	got, err = Select(tbl, dataset.AllRows(tbl.NumRows()), e)
	if err != nil || !reflect.DeepEqual(got, dataset.RowSet{1}) {
		t.Fatalf("after append: %v, %v", got, err)
	}
	gotI, err := evalRows(tbl, dataset.AllRows(tbl.NumRows()), e)
	if err != nil || !reflect.DeepEqual(gotI, got) {
		t.Fatalf("interpreter after append: %v, %v", gotI, err)
	}
}
