package httpapi

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dbexplorer/internal/dataset"
)

// petsSchema is ingestView's schema: the columns the ingest tests write.
var petsSchema = dataset.Schema{
	{Name: "kind", Kind: dataset.Categorical, Queriable: true},
	{Name: "city", Kind: dataset.Categorical, Queriable: true},
	{Name: "age", Kind: dataset.Numeric, Queriable: true},
}

// checkDecodedRows holds for every batch an ingest decoder accepts: each
// row has one cell per column, and AppendBatch into a fresh table either
// fails with the table unchanged or leaves every numeric cell finite or
// NaN.
func checkDecodedRows(t *testing.T, rows [][]any) {
	t.Helper()
	for i, row := range rows {
		if len(row) != len(petsSchema) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(petsSchema))
		}
	}
	tbl := dataset.NewTable("pets", petsSchema)
	epoch := tbl.Epoch()
	if err := tbl.AppendBatch(rows); err != nil {
		if tbl.NumRows() != 0 || tbl.Epoch() != epoch {
			t.Fatalf("failed AppendBatch left %d rows, epoch %d -> %d: %v", tbl.NumRows(), epoch, tbl.Epoch(), err)
		}
		return
	}
	age := tbl.Num(2)
	for r := 0; r < tbl.NumRows(); r++ {
		if x := age.Value(r); math.IsInf(x, 0) {
			t.Fatalf("row %d stored age %v", r, x)
		}
	}
}

func FuzzCSVRows(f *testing.F) {
	for _, s := range []string{
		"city,kind,age\nSF,cat,4\nNY,dog,\n",
		"kind,city,age,extra\ncat,SF,1,x\n",
		"kind,city\ncat,SF\n",
		"kind,city,age\ncat,SF,notanumber\n",
		"kind,city,age\ncat,SF,Inf\ndog,NY,-Inf\n",
		"kind,city,age\n\"a,b\",SF,NaN\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		rows, err := csvRows(petsSchema, strings.NewReader(body), 0)
		if err != nil {
			return
		}
		checkDecodedRows(t, rows)
	})
}

func FuzzJSONRow(f *testing.F) {
	for _, s := range []string{
		`["cat", "SF", 3]`,
		`{"kind": "dog", "city": "NY", "age": 7}`,
		`["fish", "SF", null]`,
		`["cat", "SF", "old"]`,
		`["cat", "SF"]`,
		`{"kind": "cat", "city": "SF", "height": 3}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		row, err := jsonRow(petsSchema, json.RawMessage(raw))
		if err != nil {
			return
		}
		checkDecodedRows(t, [][]any{row})
	})
}
