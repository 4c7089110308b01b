package expr

// Regression tests for the serving-path hardening: the Select full-set
// fast path must verify its input really is {0..n-1}, compiled results
// must never alias index-owned posting bitmaps across the public API,
// and per-plan bindings must not thrash the node-level cache when one
// parsed expression serves two tables. TestMain arms the dataset alias
// guard so aliasing bugs panic instead of corrupting indexes.

import (
	"os"
	"reflect"
	"sync"
	"testing"

	"dbexplorer/internal/dataset"
)

func TestMain(m *testing.M) {
	dataset.SetAliasGuard(true)
	os.Exit(m.Run())
}

// TestSelectAdversarialRowSets pins Select's behavior on inputs whose
// length equals the table size without being {0..n-1}: an unsorted
// permutation and a duplicated multiset. The old fast path keyed on
// length alone and would have returned a silently re-ordered,
// de-duplicated answer; the interpreter is the contract.
func TestSelectAdversarialRowSets(t *testing.T) {
	tbl := equivTable(300, 11)
	n := tbl.NumRows()
	e := &Cmp{Attr: "Make", Op: Eq, Str: "Ford"}
	c, err := Compile(tbl, e)
	if err != nil {
		t.Fatal(err)
	}

	reversed := make(dataset.RowSet, n)
	for i := range reversed {
		reversed[i] = n - 1 - i
	}
	duplicated := make(dataset.RowSet, 0, n)
	for i := 0; i < n/2; i++ {
		duplicated = append(duplicated, i, i)
	}
	almostAll := dataset.AllRows(n)
	almostAll[n-1] = 0 // sorted, duplicated head, right length

	for name, rows := range map[string]dataset.RowSet{
		"reversed":   reversed,
		"duplicated": duplicated,
		"almost-all": almostAll,
		"all":        dataset.AllRows(n),
	} {
		want, err := evalRows(tbl, rows, e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Select(rows)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: compiled Select diverged from interpreter\n got %v\nwant %v",
				name, got[:min(10, len(got))], want[:min(10, len(want))])
		}
	}
}

// TestBitmapResultIsCallerOwned pins the aliasing fix: the bitmap from a
// single categorical-equality plan used to alias the index's posting
// set, so mutating it corrupted every later query on that column. The
// result must now be caller-owned for every expression shape.
func TestBitmapResultIsCallerOwned(t *testing.T) {
	exprs := map[string]Expr{
		"eq-leaf":        &Cmp{Attr: "Make", Op: Eq, Str: "Ford"},
		"single-kid-and": &And{Kids: []Expr{&Cmp{Attr: "Make", Op: Eq, Str: "Ford"}}},
		"single-kid-or":  &Or{Kids: []Expr{&Cmp{Attr: "Make", Op: Eq, Str: "Ford"}}},
	}
	for name, e := range exprs {
		t.Run(name, func(t *testing.T) {
			tbl := equivTable(200, 5)
			c, err := Compile(tbl, e)
			if err != nil {
				t.Fatal(err)
			}
			bm, err := c.Bitmap()
			if err != nil {
				t.Fatal(err)
			}
			before := bm.ToRowSet()
			// Mutating the result must neither panic (alias guard) nor
			// change what the index serves next.
			bm.OrWith(dataset.FullBitmap(tbl.NumRows()))
			bm2, err := c.Bitmap()
			if err != nil {
				t.Fatal(err)
			}
			if got := bm2.ToRowSet(); !reflect.DeepEqual(got, before) {
				t.Fatalf("mutating a returned bitmap leaked into the index:\n got %d rows\nwant %d rows",
					len(got), len(before))
			}
		})
	}
}

// TestCompiledPlansDoNotThrashNodeCache compiles one parsed expression
// against two tables and alternates evaluation. With per-plan bindings
// the node-level single-slot cache must not be rewritten on every
// alternation (the old behavior re-resolved the binding on each call).
func TestCompiledPlansDoNotThrashNodeCache(t *testing.T) {
	cmp := &Cmp{Attr: "Make", Op: Eq, Str: "Ford"}
	in := &In{Attr: "Fuel", Values: []string{"Gas", "Hybrid"}}
	btw := &Between{Attr: "Price", Lo: 1000, Hi: 20000}
	e := &And{Kids: []Expr{cmp, in, btw}}

	t1, t2 := equivTable(200, 1), equivTable(200, 2)
	c1, err := Compile(t1, e)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compile(t2, e)
	if err != nil {
		t.Fatal(err)
	}
	want1, err := evalRows(t1, dataset.AllRows(t1.NumRows()), e)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := evalRows(t2, dataset.AllRows(t2.NumRows()), e)
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot the node caches; compiled evaluation must leave them alone.
	pc, pi, pb := cmp.bind.Load(), in.bind.Load(), btw.bind.Load()
	for i := 0; i < 10; i++ {
		bm1, err := c1.Bitmap()
		if err != nil {
			t.Fatal(err)
		}
		bm2, err := c2.Bitmap()
		if err != nil {
			t.Fatal(err)
		}
		if got := bm1.ToRowSet(); !reflect.DeepEqual(got, want1) {
			t.Fatalf("iteration %d: t1 result diverged", i)
		}
		if got := bm2.ToRowSet(); !reflect.DeepEqual(got, want2) {
			t.Fatalf("iteration %d: t2 result diverged", i)
		}
	}
	if cmp.bind.Load() != pc || in.bind.Load() != pi || btw.bind.Load() != pb {
		t.Error("alternating two compiled plans rewrote the node-level bind caches")
	}
}

// TestCompiledConcurrentUse evaluates one Compiled plan from many
// goroutines under -race: the plan is immutable after Compile, so
// concurrent Bitmap/Select must be safe and bit-identical.
func TestCompiledConcurrentUse(t *testing.T) {
	tbl := equivTable(500, 9)
	e := &Or{Kids: []Expr{
		&Cmp{Attr: "Make", Op: Eq, Str: "Ford"},
		&And{Kids: []Expr{
			&In{Attr: "Fuel", Values: []string{"Diesel"}},
			&Between{Attr: "Price", Lo: 997, Hi: 9970},
		}},
	}}
	c, err := Compile(tbl, e)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Select(dataset.AllRows(tbl.NumRows()))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got, err := c.Select(dataset.AllRows(tbl.NumRows()))
				if err != nil || !reflect.DeepEqual(got, want) {
					errs <- "concurrent Select diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
