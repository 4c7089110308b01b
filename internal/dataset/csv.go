package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// ReadCSV loads a table from CSV. The first record is the header. Column
// types are inferred: a column is Numeric when every cell parses as a
// float, Categorical otherwise. An empty cell does not parse, so it makes
// its column Categorical, with the empty string as a value. A numeric
// cell of "NaN" is a missing value; one that parses to an infinity
// ("Inf", "-inf", "Infinity") makes ReadCSV return an error.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataset: csv has no header row")
	}
	header := records[0]
	rows := records[1:]
	for i, rec := range rows {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: csv row %d has %d fields, header has %d", i+2, len(rec), len(header))
		}
	}

	schema := make(Schema, len(header))
	numeric := make([]bool, len(header))
	for c := range header {
		numeric[c] = len(rows) > 0
		for _, rec := range rows {
			if _, err := strconv.ParseFloat(rec[c], 64); err != nil {
				numeric[c] = false
				break
			}
		}
		kind := Categorical
		if numeric[c] {
			kind = Numeric
		}
		schema[c] = Attribute{Name: header[c], Kind: kind, Queriable: true}
	}

	t := NewTable(name, schema)
	for i, rec := range rows {
		vals := make([]any, len(rec))
		for c, cell := range rec {
			if numeric[c] {
				f, _ := strconv.ParseFloat(cell, 64)
				vals[c] = f
			} else {
				vals[c] = cell
			}
		}
		if err := t.AppendRow(vals...); err != nil {
			return nil, fmt.Errorf("dataset: csv row %d: %w", i+2, err)
		}
	}
	return t, nil
}

// ReadCSVFile is ReadCSV over a file path; the table is named after the
// path's base unless name is non-empty.
func ReadCSVFile(name, path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	if name == "" {
		name = path
	}
	return ReadCSV(name, f)
}

// WriteCSV writes the full table (header + all rows) as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.schema.Names()); err != nil {
		return fmt.Errorf("dataset: writing csv header: %w", err)
	}
	rec := make([]string, t.NumCols())
	for r := 0; r < t.NumRows(); r++ {
		for c := range rec {
			rec[c] = t.CellString(r, c)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: writing csv row %d: %w", r, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
