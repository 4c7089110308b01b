package engine

import (
	"reflect"
	"strings"
	"testing"

	"dbexplorer/internal/cadql"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/expr"
	"dbexplorer/internal/facet"
)

// queryCorpus is the end-to-end WHERE-clause corpus: every predicate
// shape the parser can produce, phrased over the carsTable schema. Each
// query must return byte-identical rows and digests through the
// compiled-vectorized and interpreted evaluators.
var queryCorpus = []string{
	"SELECT * FROM UsedCars",
	"SELECT * FROM UsedCars WHERE Make = Jeep",
	"SELECT * FROM UsedCars WHERE Make != Jeep",
	"SELECT * FROM UsedCars WHERE Make = Jeep AND Price > 30K",
	"SELECT * FROM UsedCars WHERE Price >= 28K AND Price <= 33K",
	"SELECT * FROM UsedCars WHERE Price BETWEEN 26K AND 31K",
	"SELECT * FROM UsedCars WHERE Make IN (Ford, Chevrolet)",
	"SELECT * FROM UsedCars WHERE Make IN (Jeep, 'Land Rover')",
	"SELECT * FROM UsedCars WHERE NOT (BodyType = Sedan)",
	"SELECT * FROM UsedCars WHERE Make = Ford OR Engine = V8",
	"SELECT * FROM UsedCars WHERE (Make = Ford OR Make = Jeep) AND NOT Price < 27K",
	"SELECT * FROM UsedCars WHERE Mileage < 20K AND (BodyType = SUV OR Price > 35K)",
	"SELECT * FROM UsedCars WHERE Engine != V6 AND Mileage >= 10K",
	"SELECT * FROM UsedCars WHERE Make = Nonexistent",
	"SELECT * FROM UsedCars WHERE Price = 0",
}

// interpretRows is the row-at-a-time interpreter: the rows of the input
// on which e.Eval holds, in input order.
func interpretRows(t *dataset.Table, rows dataset.RowSet, e expr.Expr) (dataset.RowSet, error) {
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

// TestCorpusVectorizedMatchesInterpreted runs every corpus query
// through the engine (compiled path) and through the row-at-a-time
// interpreter, then checks the row sets and the facet digests over
// them are identical.
func TestCorpusVectorizedMatchesInterpreted(t *testing.T) {
	tbl := carsTable(t, 400, 1)
	s := NewSession()
	if err := s.Register(tbl); err != nil {
		t.Fatal(err)
	}
	v, err := dataview.New(tbl, dataview.Options{Bins: 5})
	if err != nil {
		t.Fatal(err)
	}
	all := dataset.AllRows(tbl.NumRows())
	for _, q := range queryCorpus {
		stmt, err := cadql.Parse(q)
		if err != nil {
			t.Fatalf("%s: parse: %v", q, err)
		}
		sel, ok := stmt.(*cadql.SelectStmt)
		if !ok {
			t.Fatalf("%s: not a SELECT", q)
		}

		// Interpreted reference.
		want, err := interpretRows(tbl, all, sel.Where)
		if err != nil {
			t.Fatalf("%s: interpreter: %v", q, err)
		}

		// Engine path (compiled + vectorized).
		r, err := s.Exec(q)
		if err != nil {
			t.Fatalf("%s: exec: %v", q, err)
		}
		if !reflect.DeepEqual(r.Rows, want) {
			t.Fatalf("%s: engine returned %d rows, interpreter %d", q, len(r.Rows), len(want))
		}
		// Rendered output is a pure function of (table, rows, columns), so
		// identical rows guarantee byte-identical rendering; pin it anyway.
		ref := &Result{Kind: KindRows, Table: tbl, Rows: want, Columns: r.Columns}
		if got, wantTxt := RenderResult(r, 0), RenderResult(ref, 0); got != wantTxt {
			t.Fatalf("%s: rendered output diverged:\n%s\n---\n%s", q, got, wantTxt)
		}

		// Facet digest over the result set: incremental bitmap digest vs
		// the row-based Summarize reference.
		gotDigest := facet.NewSession(v, r.Rows).Digest()
		wantDigest := facet.Summarize(v, want, true)
		if !reflect.DeepEqual(gotDigest.Attrs, wantDigest.Attrs) {
			t.Fatalf("%s: facet digest diverged between bitmap and row-based paths", q)
		}
	}
}

// TestExplainReportsPlan: EXPLAIN names which evaluator served the
// WHERE clause.
func TestExplainReportsPlan(t *testing.T) {
	s := newSession(t)
	r, err := s.Exec("EXPLAIN CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM UsedCars WHERE Make = Jeep")
	if err != nil {
		t.Fatal(err)
	}
	if want := "vectorized (posting bitmaps)"; !containsLine(r.Message, want) {
		t.Fatalf("explain output missing %q:\n%s", want, r.Message)
	}
}

// TestExplainReportsCostOrder: on a conjunction, EXPLAIN must surface
// the cost-based plan — the cheapest-first And ordering with per-leaf
// cardinality estimates — not just the evaluator name.
func TestExplainReportsCostOrder(t *testing.T) {
	s := newSession(t)
	r, err := s.Exec("EXPLAIN CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM UsedCars WHERE BodyType = SUV AND Price > 0")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"children cheapest-first", "est "} {
		if !strings.Contains(r.Message, want) {
			t.Fatalf("explain output missing %q:\n%s", want, r.Message)
		}
	}
	// The SUV equality is rarer than Price > 0, so it must print first
	// inside the plan tree (the echoed WHERE text above the plan keeps
	// source order, so only look past the AND header line).
	plan := r.Message[strings.Index(r.Message, "children cheapest-first"):]
	iBody := strings.Index(plan, "BodyType")
	iPrice := strings.Index(plan, "Price > 0")
	if iBody < 0 || iPrice < 0 || iBody > iPrice {
		t.Fatalf("And children not printed cheapest-first:\n%s", r.Message)
	}
}

func containsLine(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
