// Package dataset implements the in-memory columnar relational store that
// DBExplorer runs on. A Table holds dictionary-encoded categorical columns
// and float64 numeric columns; query evaluation, facet digests, and CAD
// View construction all operate on a Table plus a RowSet (a selected
// subset of its rows).
//
// The store deliberately favors the access patterns of exploratory
// search: column scans over a row subset, per-column value counting, and
// cheap projection. It is not a general-purpose DBMS, but it is a
// complete, self-contained substrate: tables can be built
// programmatically, loaded from CSV with type inference, filtered with
// expressions (package expr), and summarized (package facet).
package dataset

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Segment geometry: column storage is split into fixed-size 64K-row
// segments, deliberately equal to the Bitmap chunk size (container.go's
// chunkBits) so one storage segment maps to exactly one posting
// container. That alignment is what makes morsel-per-segment builds
// cheap: a worker that scans segment s produces container s of every
// posting it touches, with no cross-segment carry, and the per-segment
// results concatenate (bitmap containers, sorted orders) or add
// (frequencies) into the global answer.
//
// Segments are also the seam for incremental ingest: appends only ever
// touch the last segment, so earlier segments — and every per-segment
// index structure over them — are immutable.
const (
	// SegmentBits is log2 of the rows per storage segment.
	SegmentBits = chunkBits
	// SegmentSize is the number of rows per storage segment (the last
	// segment of a column may be partial).
	SegmentSize = 1 << SegmentBits
	// SegmentMask extracts the segment-local offset from a row id:
	// row == seg<<SegmentBits | off.
	SegmentMask = SegmentSize - 1
)

// NumSegments returns the number of segments covering n rows.
func NumSegments(n int) int { return (n + SegmentMask) >> SegmentBits }

// SegmentRows returns the number of rows segment s holds out of n total
// (SegmentSize for all but possibly the last segment).
func SegmentRows(s, n int) int {
	if lim := n - s<<SegmentBits; lim < SegmentSize {
		return lim
	}
	return SegmentSize
}

// Kind distinguishes the two attribute types DBExplorer understands.
type Kind int

const (
	// Categorical attributes hold string values drawn from a finite
	// domain (Make, Color, odor, ...). They are dictionary encoded.
	Categorical Kind = iota
	// Numeric attributes hold float64 values (Price, Mileage, ...).
	// For CAD View construction they are discretized into bins by
	// package histogram, per the paper's pre-processing step.
	Numeric
)

// String returns "categorical" or "numeric".
func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute describes one column of a Table.
type Attribute struct {
	// Name is the attribute name used in queries (case-sensitive).
	Name string
	// Kind is Categorical or Numeric.
	Kind Kind
	// Queriable marks attributes exposed in the faceted query panel.
	// The paper's Limitation 2 concerns attributes present in the data
	// but not queriable through the interface; the facet package honors
	// this flag while the CAD View ignores it (that is the point).
	Queriable bool
}

// Schema is an ordered list of attributes.
type Schema []Attribute

// Index returns the position of the named attribute, or -1.
func (s Schema) Index(name string) int {
	for i, a := range s {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the attribute names in schema order.
func (s Schema) Names() []string {
	names := make([]string, len(s))
	for i, a := range s {
		names[i] = a.Name
	}
	return names
}

// CatColumn is a dictionary-encoded categorical column. Codes index into
// the dictionary (Dict), which preserves first-seen order. Codes are
// stored in fixed-size 64K-row segments (SegmentSize); only the last
// segment ever grows, so earlier segments stay immutable once full.
//
// Appends are safe to run concurrently with readers: the dictionary, the
// segment table, and the row count publish through atomic pointers in
// dict → segs → n order, so a reader that observes n rows is guaranteed
// segment headers covering those rows and dictionary entries for every
// code among them. Writers append new cells into the tail segment's
// spare capacity — past every published length — and then publish a
// fresh copy of the outer segment table, so no published slice header or
// cell is ever mutated in place.
type CatColumn struct {
	dict atomic.Pointer[[]string]  // published dictionary (append-only)
	segs atomic.Pointer[[][]int32] // published segment headers (append-only)
	n    atomic.Int64              // published row count

	mu    sync.Mutex       // serializes appends; guards index
	index map[string]int32 // value → code intern map
}

// NewCatColumn returns an empty categorical column.
func NewCatColumn() *CatColumn {
	c := &CatColumn{index: make(map[string]int32)}
	c.dict.Store(new([]string))
	c.segs.Store(new([][]int32))
	return c
}

// Append adds one value, interning it in the dictionary.
func (c *CatColumn) Append(v string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.appendLocked([]string{v})
}

// appendBatch adds values in order, publishing the new rows once at the
// end (one dictionary/segment-table publication per batch, not per row).
func (c *CatColumn) appendBatch(vals []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.appendLocked(vals)
}

func (c *CatColumn) appendLocked(vals []string) {
	dict := *c.dict.Load()
	dictGrew := false
	codes := make([]int32, len(vals))
	for i, v := range vals {
		code, ok := c.index[v]
		if !ok {
			code = int32(len(dict))
			dict = append(dict, v)
			c.index[v] = code
			dictGrew = true
		}
		codes[i] = code
	}
	if dictGrew {
		d := dict
		c.dict.Store(&d)
	}
	n := int(c.n.Load())
	segs := appendSegmented(*c.segs.Load(), n, codes)
	c.segs.Store(&segs)
	c.n.Store(int64(n + len(vals)))
}

// appendSegmented writes vals after row n into a copy of the outer
// segment table, growing the tail segment (its spare capacity lies past
// every published length, and a reallocating append copies into a
// not-yet-published array, so concurrent readers never see the writes)
// and opening fresh segments as boundaries are crossed.
func appendSegmented[E any](old [][]E, n int, vals []E) [][]E {
	segs := append(make([][]E, 0, NumSegments(n+len(vals))), old...)
	for len(vals) > 0 {
		if n&SegmentMask == 0 {
			segs = append(segs, nil)
		}
		s := len(segs) - 1
		take := SegmentSize - len(segs[s])
		if take > len(vals) {
			take = len(vals)
		}
		segs[s] = append(segs[s], vals[:take]...)
		vals = vals[take:]
		n += take
	}
	return segs
}

// Dict returns the dictionary in code order; callers must not modify it.
func (c *CatColumn) Dict() []string { return *c.dict.Load() }

// Len returns the number of rows stored.
func (c *CatColumn) Len() int { return int(c.n.Load()) }

// Code returns the dictionary code at row i.
func (c *CatColumn) Code(i int) int32 {
	segs := *c.segs.Load()
	return segs[i>>SegmentBits][i&SegmentMask]
}

// SegCodes returns segment s's code slice (segment-local row order);
// callers must not modify it. Morsel scans hoist one segment at a time
// instead of paying the two-level lookup per row.
func (c *CatColumn) SegCodes(s int) []int32 { return (*c.segs.Load())[s] }

// segTable returns the published segment headers; callers hoist it once
// per scan instead of paying an atomic load per segment.
func (c *CatColumn) segTable() [][]int32 { return *c.segs.Load() }

// Value returns the string value at row i.
func (c *CatColumn) Value(i int) string { return c.Dict()[c.Code(i)] }

// CodeOf returns the dictionary code for value v, or -1 if v never occurs.
func (c *CatColumn) CodeOf(v string) int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if code, ok := c.index[v]; ok {
		return code
	}
	return -1
}

// Cardinality returns the number of distinct values seen.
func (c *CatColumn) Cardinality() int { return len(*c.dict.Load()) }

// NumColumn is a dense float64 column stored in fixed-size 64K-row
// segments (SegmentSize); only the last segment ever grows. Appends are
// safe to run concurrently with readers under the same publication
// discipline as CatColumn: cells land past every published length, then
// a fresh copy of the outer segment table and the new row count publish
// atomically, in that order.
type NumColumn struct {
	segs atomic.Pointer[[][]float64] // published segment headers (append-only)
	n    atomic.Int64                // published row count

	mu sync.Mutex // serializes appends
}

// NewNumColumn returns an empty numeric column.
func NewNumColumn() *NumColumn {
	c := &NumColumn{}
	c.segs.Store(new([][]float64))
	return c
}

// Append adds one value.
func (c *NumColumn) Append(v float64) { c.appendBatch([]float64{v}) }

// appendBatch adds values in order, publishing the new rows once at the
// end.
func (c *NumColumn) appendBatch(vals []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := int(c.n.Load())
	segs := appendSegmented(*c.segs.Load(), n, vals)
	c.segs.Store(&segs)
	c.n.Store(int64(n + len(vals)))
}

// Len returns the number of rows stored.
func (c *NumColumn) Len() int { return int(c.n.Load()) }

// Value returns the value at row i.
func (c *NumColumn) Value(i int) float64 {
	segs := *c.segs.Load()
	return segs[i>>SegmentBits][i&SegmentMask]
}

// SegValues returns segment s's value slice (segment-local row order);
// callers must not modify it.
func (c *NumColumn) SegValues(s int) []float64 { return (*c.segs.Load())[s] }

// segTable returns the published segment headers; callers hoist it once
// per scan instead of paying an atomic load per segment.
func (c *NumColumn) segTable() [][]float64 { return *c.segs.Load() }

// Values returns the per-row value array; callers must not modify it.
// Single-segment columns (≤64K rows) return the backing slice directly;
// larger columns materialize a contiguous copy, so hot paths over big
// tables should iterate SegValues per segment instead.
func (c *NumColumn) Values() []float64 {
	segs := *c.segs.Load()
	if len(segs) == 1 {
		return segs[0]
	}
	out := make([]float64, 0, c.Len())
	for _, seg := range segs {
		out = append(out, seg...)
	}
	return out
}

// Table is a named relation with columnar storage. Appends are safe to
// run concurrently with readers: columns publish their new cells before
// the table publishes the new row count, so a reader that observes n
// rows finds every column covering them; an in-flight query that took an
// Index snapshot keeps evaluating over the rows that snapshot covers.
type Table struct {
	name   string
	schema Schema
	cats   []*CatColumn // indexed by column position; nil for numeric
	nums   []*NumColumn // indexed by column position; nil for categorical
	n      atomic.Int64
	epoch  atomic.Uint64 // bumped once per successful append; see Epoch

	appendMu sync.Mutex // serializes AppendRow/AppendBatch
	idxMu    sync.Mutex
	idx      *Index // lazily built posting index; see Table.Index
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) *Table {
	t := &Table{
		name:   name,
		schema: append(Schema(nil), schema...),
		cats:   make([]*CatColumn, len(schema)),
		nums:   make([]*NumColumn, len(schema)),
	}
	for i, a := range schema {
		if a.Kind == Categorical {
			t.cats[i] = NewCatColumn()
		} else {
			t.nums[i] = NewNumColumn()
		}
	}
	return t
}

// ResetIndex drops the table's cached posting index so the next Index
// call starts empty. Postings and sorted orders rebuild lazily on first
// use; existing *Index handles keep working over their snapshot. Use it
// to release index memory for a table that will not be queried again
// soon, or to force a cold build in measurements.
func (t *Table) ResetIndex() {
	t.idxMu.Lock()
	t.idx = nil
	t.idxMu.Unlock()
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema. Callers must not modify it.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return int(t.n.Load()) }

// Epoch returns the table's append epoch: 0 for a table that has never
// been appended to since caches first observed it, +1 per successful
// AppendRow or AppendBatch. Caches key derived structures (compiled
// predicate binds, view postings, CAD View cache entries, suggestion
// models) on it to detect rows arriving underneath them. The epoch is
// bumped after the new row count publishes, so a reader that loads the
// epoch first and the row count second never associates an epoch with
// rows it cannot see.
func (t *Table) Epoch() uint64 { return t.epoch.Load() }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.schema) }

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int { return t.schema.Index(name) }

// Cat returns the categorical column at position col, or nil if the
// column is numeric.
func (t *Table) Cat(col int) *CatColumn { return t.cats[col] }

// Num returns the numeric column at position col, or nil if the column
// is categorical.
func (t *Table) Num(col int) *NumColumn { return t.nums[col] }

// CatByName returns the named categorical column, or an error if the
// column is missing or numeric.
func (t *Table) CatByName(name string) (*CatColumn, error) {
	i := t.ColIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("dataset: table %q has no column %q", t.name, name)
	}
	if t.cats[i] == nil {
		return nil, fmt.Errorf("dataset: column %q of table %q is numeric, not categorical", name, t.name)
	}
	return t.cats[i], nil
}

// NumByName returns the named numeric column, or an error if the column
// is missing or categorical.
func (t *Table) NumByName(name string) (*NumColumn, error) {
	i := t.ColIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("dataset: table %q has no column %q", t.name, name)
	}
	if t.nums[i] == nil {
		return nil, fmt.Errorf("dataset: column %q of table %q is categorical, not numeric", name, t.name)
	}
	return t.nums[i], nil
}

// checkRow validates one row against the schema without mutating
// anything, returning the numeric cells converted to float64 (the slot
// for categorical cells is unused). Append paths run it over every row
// before touching any column, so a type error leaves the table exactly
// as it was — no column ends up one cell longer than its siblings.
func (t *Table) checkRow(vals []any) ([]float64, error) {
	if len(vals) != len(t.schema) {
		return nil, fmt.Errorf("dataset: append got %d values for %d columns", len(vals), len(t.schema))
	}
	nums := make([]float64, len(vals))
	for i, v := range vals {
		switch a := t.schema[i]; a.Kind {
		case Categorical:
			if _, ok := v.(string); !ok {
				return nil, fmt.Errorf("dataset: column %q wants string, got %T", a.Name, v)
			}
		case Numeric:
			switch x := v.(type) {
			case float64:
				if math.IsInf(x, 0) {
					return nil, fmt.Errorf("dataset: column %q got %v; numbers must be finite (NaN means missing)", a.Name, x)
				}
				nums[i] = x
			case int:
				nums[i] = float64(x)
			default:
				return nil, fmt.Errorf("dataset: column %q wants float64, got %T", a.Name, v)
			}
		}
	}
	return nums, nil
}

// AppendRow adds one row. vals must have one entry per column: string
// for categorical columns, float64 (or int) for numeric columns. The row
// is validated in full before any column is touched; on error the table
// is unmodified.
func (t *Table) AppendRow(vals ...any) error {
	nums, err := t.checkRow(vals)
	if err != nil {
		return err
	}
	t.appendMu.Lock()
	defer t.appendMu.Unlock()
	for i, v := range vals {
		if t.cats[i] != nil {
			t.cats[i].Append(v.(string))
		} else {
			t.nums[i].Append(nums[i])
		}
	}
	t.n.Add(1)
	t.epoch.Add(1)
	return nil
}

// AppendBatch adds rows in order, each with one entry per column (the
// AppendRow conventions). The whole batch is validated before any column
// is touched — on error the table is unmodified — and the new rows
// publish column by column, with the row count and epoch bumped once at
// the end, so the batch costs one segment-table publication per column
// instead of one per cell. Readers are never blocked: an in-flight query
// keeps its Index snapshot, and the next Table.Index call extends the
// index over the new tail rows (see Index).
func (t *Table) AppendBatch(rows [][]any) error {
	if len(rows) == 0 {
		return nil
	}
	numVals := make([][]float64, len(rows))
	for r, row := range rows {
		nums, err := t.checkRow(row)
		if err != nil {
			return fmt.Errorf("row %d: %w", r, err)
		}
		numVals[r] = nums
	}
	t.appendMu.Lock()
	defer t.appendMu.Unlock()
	for i := range t.schema {
		if c := t.cats[i]; c != nil {
			vals := make([]string, len(rows))
			for r, row := range rows {
				vals[r] = row[i].(string)
			}
			c.appendBatch(vals)
		} else {
			vals := make([]float64, len(rows))
			for r := range rows {
				vals[r] = numVals[r][i]
			}
			t.nums[i].appendBatch(vals)
		}
	}
	t.n.Add(int64(len(rows)))
	t.epoch.Add(1)
	return nil
}

// MustAppendRow is AppendRow that panics on error; intended for
// generators and tests where the schema is statically known.
func (t *Table) MustAppendRow(vals ...any) {
	if err := t.AppendRow(vals...); err != nil {
		panic(err)
	}
}

// CellString renders the cell at (row, col) as a string: the dictionary
// value for categorical columns, %g formatting for numeric columns.
func (t *Table) CellString(row, col int) string {
	if c := t.cats[col]; c != nil {
		return c.Value(row)
	}
	return fmt.Sprintf("%g", t.nums[col].Value(row))
}

// DistinctValues returns the distinct values of a categorical column
// restricted to rows, ordered by descending frequency (ties broken by
// dictionary order).
func (t *Table) DistinctValues(col int, rows RowSet) []string {
	c := t.cats[col]
	if c == nil {
		return nil
	}
	counts := t.ValueCounts(col, rows)
	out := make([]string, 0, len(counts))
	for _, vc := range counts {
		out = append(out, vc.Value)
	}
	return out
}

// ValueCount is one (value, frequency) pair of a column over a row set.
type ValueCount struct {
	Value string
	Count int
}

// ValueCounts returns per-value frequencies of a categorical column over
// rows, sorted by descending count then ascending value.
func (t *Table) ValueCounts(col int, rows RowSet) []ValueCount {
	c := t.cats[col]
	if c == nil {
		return nil
	}
	counts := make([]int, c.Cardinality())
	for _, r := range rows {
		counts[c.Code(r)]++
	}
	dict := c.Dict()
	out := make([]ValueCount, 0, len(counts))
	for code, n := range counts {
		if n > 0 {
			out = append(out, ValueCount{Value: dict[code], Count: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// CodeCounts returns frequencies indexed by dictionary code for a
// categorical column over rows.
func (t *Table) CodeCounts(col int, rows RowSet) []int {
	c := t.cats[col]
	if c == nil {
		return nil
	}
	counts := make([]int, c.Cardinality())
	for _, r := range rows {
		counts[c.Code(r)]++
	}
	return counts
}
