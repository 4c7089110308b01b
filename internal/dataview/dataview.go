// Package dataview provides a discretized, uniformly coded view of a
// dataset table: every attribute — categorical or numeric — is exposed as
// small integer codes with human-readable labels. This is the paper's
// §2.2.1 pre-processing step ("attribute value cardinality reduction is
// necessary for effective summarization"): numeric attributes are binned
// with package histogram once at view-construction time, and all
// downstream machinery (feature selection, clustering, IUnit labeling,
// facet digests) operates on codes.
package dataview

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/fault"
	"dbexplorer/internal/histogram"
	"dbexplorer/internal/parallel"
)

// DefaultBins is the number of buckets numeric attributes are reduced to
// when the caller does not specify otherwise.
const DefaultBins = 5

// Column is one attribute of the coded view.
type Column struct {
	// Attr is the attribute name.
	Attr string
	// Col is the column position in the underlying table.
	Col int
	// Kind records the original attribute type.
	Kind dataset.Kind

	labels []string
	n      int // row snapshot the view was built over; see Column.rows
	tbl    *dataset.Table
	cat    *dataset.CatColumn
	num    *dataset.NumColumn
	hist   *histogram.Histogram

	postMu   sync.Mutex
	postings []*dataset.Bitmap // per view code; see Postings

	// numCodes caches the binned code of every row of a numeric column,
	// in per-segment slices aligned with the column's storage segments,
	// filled at view build (or as a by-product of the Postings build).
	// Once present, Code is an array load instead of a binary search
	// over the histogram edges.
	numCodes atomic.Pointer[[][]int32]
}

// postingBuilds counts per-column posting-set constructions process-wide
// (mirrored into the serving metrics registry).
var postingBuilds atomic.Int64

// PostingStats reports how many view-level posting sets have been built.
func PostingStats() int64 { return postingBuilds.Load() }

// Postings returns one full-table posting bitmap per view code: bitmap
// b[code] holds exactly the rows with Code(row) == code. The set is
// built once per column on first use — one pass over the column, binning
// numeric values through the histogram exactly as Code does — and is
// what lets facet filter stacks and digest counting run as bitmap
// algebra instead of per-row code lookups. Callers must treat the
// bitmaps as read-only: they are frozen, and with the alias guard
// enabled (tests) any in-place mutation panics. Safe for concurrent use.
func (c *Column) Postings() []*dataset.Bitmap {
	// A mutex rather than sync.Once: Once marks itself done even when the
	// build panics (e.g. an injected fault), which would wedge the column
	// with nil postings forever. Under the mutex a panicked build leaves
	// postings nil and the next caller simply rebuilds.
	c.postMu.Lock()
	defer c.postMu.Unlock()
	if c.postings == nil {
		fault.Check(fault.PointViewPostings)
		n := c.rows()
		// Categorical view codes are exactly the dictionary codes, so the
		// table index's posting sets are this column's posting sets:
		// delegate instead of building a second copy, which both halves
		// the memory and lets the postings outlive the view (the index is
		// keyed to the table, views are rebuilt per registration). The
		// delegation is skipped when the table has grown past the view's
		// label snapshot — then a local build over the current rows keeps
		// the previous semantics.
		if c.cat != nil && c.tbl != nil {
			if ix := c.tbl.Index(); ix.Rows() == n {
				if ps := ix.CatPostings(c.Col); len(ps) == c.Cardinality() {
					c.postings = ps
					return c.postings
				}
			}
		}
		// The posting build is a per-segment scatter: each storage segment
		// becomes one container of every code's posting, built as one
		// morsel on the shared pool (dataset.BuildPostings). The per-row
		// codes come from the segment-aligned cache, materialized first
		// when missing (CodeSegs computes them segment-parallel too).
		segCodes := c.CodeSegs()
		c.postings = dataset.BuildPostings(n, c.Cardinality(), func(s int) []int32 {
			return segCodes[s][:dataset.SegmentRows(s, n)]
		})
		postingBuilds.Add(1)
	}
	return c.postings
}

// CodeSegs returns the per-row view codes in per-segment slices aligned
// with the column's storage segments (dataset.SegmentSize rows each,
// the last partial): the dictionary code segments themselves for
// categorical columns, and the binned codes — materialized
// segment-parallel on first call and cached — for numeric columns. Row
// scans (contingency fills, sparse encoding) index them as
// segs[r>>SegmentBits][r&SegmentMask]; the per-row Code path costs a
// bin binary-search on a cold numeric column, which dominated repeated
// scans. Callers must not modify the result.
func (c *Column) CodeSegs() [][]int32 {
	if c.cat != nil {
		// Truncate to the view's row snapshot: after appends the live
		// column spans more rows (and possibly more segments) than the
		// view covers.
		segs := make([][]int32, dataset.NumSegments(c.n))
		for s := range segs {
			segs[s] = c.cat.SegCodes(s)[:dataset.SegmentRows(s, c.n)]
		}
		return segs
	}
	n := c.rows()
	if p := c.numCodes.Load(); p != nil && segsLen(*p) == n {
		return *p
	}
	nSegs := dataset.NumSegments(n)
	codes := make([][]int32, nSegs)
	parallel.Do(nSegs, func(s int) {
		vals := c.num.SegValues(s)[:dataset.SegmentRows(s, n)]
		sc := make([]int32, len(vals))
		for i, v := range vals {
			sc[i] = int32(c.hist.Bin(v))
		}
		codes[s] = sc
	})
	// Concurrent builders race benignly: every build produces the same
	// arrays, and the atomic store keeps readers consistent.
	c.numCodes.Store(&codes)
	return codes
}

// segsLen sums the lengths of per-segment code slices.
func segsLen(segs [][]int32) int {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	return n
}

// rows returns the number of table rows the view was built over. This is
// a snapshot pinned at view construction, not the live table length:
// rows appended afterwards stay invisible to the view, so its postings,
// code caches, and every bitmap derived from them share one stable
// universe no matter how the table grows underneath. Fresh rows become
// visible through a fresh view (Shared re-keys on row count).
func (c *Column) rows() int { return c.n }

// Cardinality returns the number of distinct codes.
func (c *Column) Cardinality() int { return len(c.labels) }

// Code returns the view code of the given table row.
func (c *Column) Code(row int) int {
	if c.cat != nil {
		return int(c.cat.Code(row))
	}
	if p := c.numCodes.Load(); p != nil {
		if s := row >> dataset.SegmentBits; s < len(*p) {
			if seg := (*p)[s]; row&dataset.SegmentMask < len(seg) {
				return int(seg[row&dataset.SegmentMask])
			}
		}
	}
	return c.hist.Bin(c.num.Value(row))
}

// Label returns the display label for a code: the dictionary value for
// categorical attributes, the bin range (e.g. "15K-20K") for numerics.
func (c *Column) Label(code int) string { return c.labels[code] }

// Labels returns all code labels in code order; callers must not modify.
func (c *Column) Labels() []string { return c.labels }

// CodeOf returns the code whose label is exactly lbl, or -1.
func (c *Column) CodeOf(lbl string) int {
	for i, l := range c.labels {
		if l == lbl {
			return i
		}
	}
	return -1
}

// Histogram returns the numeric bin histogram, or nil for categorical
// columns.
func (c *Column) Histogram() *histogram.Histogram { return c.hist }

// View is a coded projection of one row snapshot of a table: it pins the
// row count (and append epoch) at construction, so rows appended later
// are invisible to it and every structure derived from it shares one
// universe. The serving layer detects staleness by comparing Epoch
// against the table's and swaps in a freshly built view.
type View struct {
	table  *dataset.Table
	rows   int
	epoch  uint64
	opt    Options
	cols   []*Column
	byName map[string]int
}

// Options configures view construction.
type Options struct {
	// Bins is the bucket budget per numeric attribute (default
	// DefaultBins).
	Bins int
	// Method selects the binning algorithm (default histogram.EquiDepth).
	Method histogram.Method
}

// New builds a coded view of t. Numeric attributes are binned over the
// full table (pre-processing is global, per the paper; selections later
// restrict rows, not bin boundaries, so labels remain stable during
// exploration).
func New(t *dataset.Table, opt Options) (*View, error) {
	if opt.Bins == 0 {
		opt.Bins = DefaultBins
	}
	if opt.Bins < 1 {
		return nil, fmt.Errorf("dataview: bins must be >= 1, got %d", opt.Bins)
	}
	// Epoch before row count (the writer publishes rows before bumping the
	// epoch), so the view is never labeled newer than the rows it covers.
	epoch := t.Epoch()
	n := t.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("dataview: table %q has no rows", t.Name())
	}
	v := &View{table: t, rows: n, epoch: epoch, opt: opt, byName: make(map[string]int)}
	schema := t.Schema()
	// Columns code independently (numeric binning sorts the whole column,
	// the dominant cost on wide tables), so build them on the shared
	// worker pool; the result is identical to a sequential build.
	cols := make([]*Column, len(schema))
	errs := make([]error, len(schema))
	parallel.Do(len(schema), func(i int) {
		attr := schema[i]
		col := &Column{Attr: attr.Name, Col: i, Kind: attr.Kind, n: n, tbl: t}
		if cat := t.Cat(i); cat != nil {
			col.cat = cat
			col.labels = append([]string(nil), cat.Dict()...)
		} else {
			num := t.Num(i)
			// Equi-width and equi-depth bin without sorting the column
			// (min/max and a few order statistics respectively), and the
			// per-row codes the coded builder computes as a by-product —
			// one morsel per storage segment — are exactly what the first
			// CAD View build would otherwise materialize row by row.
			// Segments truncate to the view's row snapshot so a
			// concurrent append never leaks rows into the bin edges.
			segs := make([][]float64, dataset.NumSegments(n))
			for s := range segs {
				segs[s] = num.SegValues(s)[:dataset.SegmentRows(s, n)]
			}
			h, codes, err := histogram.BuildCodedSegs(segs, opt.Bins, opt.Method)
			if err != nil {
				errs[i] = fmt.Errorf("dataview: binning %q: %w", attr.Name, err)
				return
			}
			col.numCodes.Store(&codes)
			col.num = num
			col.hist = h
			col.labels = h.Labels()
		}
		cols[i] = col
	})
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		v.byName[schema[i].Name] = len(v.cols)
		v.cols = append(v.cols, cols[i])
	}
	return v, nil
}

// sharedKey identifies one memoized view: the table (held weakly so the
// cache never extends a table's lifetime) plus the binning options that
// shape the view.
type sharedKey struct {
	tbl    weak.Pointer[dataset.Table]
	bins   int
	method histogram.Method
}

type sharedEntry struct {
	view *View
	rows int // row count the view was built over
}

var (
	sharedMu    sync.Mutex
	sharedViews = make(map[sharedKey]*sharedEntry)
)

// Shared returns the memoized coded view of t for the given options,
// building it on first use. A view is a pure function of the table
// snapshot and the binning options, and all of its lazy caches (postings,
// numeric codes) are concurrency-safe, so every registration of the same
// table can share one view — repeated sessions skip re-binning and keep
// the warmed posting sets. The cache re-keys on row count: after appends
// the next Shared call builds (and memoizes) a fresh view, and entries
// are dropped when their table is garbage collected.
func Shared(t *dataset.Table, opt Options) (*View, error) {
	if opt.Bins == 0 {
		opt.Bins = DefaultBins
	}
	key := sharedKey{tbl: weak.Make(t), bins: opt.Bins, method: opt.Method}
	sharedMu.Lock()
	if e, ok := sharedViews[key]; ok && e.rows == t.NumRows() {
		sharedMu.Unlock()
		return e.view, nil
	}
	sharedMu.Unlock()

	// Build outside the lock; a concurrent duplicate build is harmless
	// (the loser's view is discarded below).
	v, err := New(t, opt)
	if err != nil {
		return nil, err
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if e, ok := sharedViews[key]; ok {
		if e.rows == t.NumRows() {
			return e.view, nil
		}
		e.view, e.rows = v, t.NumRows()
		return v, nil
	}
	sharedViews[key] = &sharedEntry{view: v, rows: t.NumRows()}
	// The key holds the table only weakly; drop the entry when the table
	// itself is collected so transient tables don't accumulate.
	runtime.AddCleanup(t, func(k sharedKey) {
		sharedMu.Lock()
		delete(sharedViews, k)
		sharedMu.Unlock()
	}, key)
	return v, nil
}

// Table returns the underlying table.
func (v *View) Table() *dataset.Table { return v.table }

// Rows returns the row snapshot the view was built over — the universe
// of every bitmap derived from the view, which may lag the live table
// after appends.
func (v *View) Rows() int { return v.rows }

// Epoch returns the table append epoch the view was built at. The
// serving layer compares it with Table.Epoch to decide whether cached
// results derived from this view should be served as stale.
func (v *View) Epoch() uint64 { return v.epoch }

// Opts returns the options the view was built with (defaults resolved),
// so a caller holding only the view can rebuild it over a grown table
// with identical configuration.
func (v *View) Opts() Options { return v.opt }

// Columns returns all coded columns in schema order.
func (v *View) Columns() []*Column { return v.cols }

// UnknownAttrError is the typed error for a name that resolves to no
// attribute of the view. The serving layer maps it (through any
// wrapping) to the {code: "bad_attribute"} envelope.
type UnknownAttrError struct {
	Attr string
}

func (e *UnknownAttrError) Error() string {
	return fmt.Sprintf("dataview: no attribute %q", e.Attr)
}

// UnknownValueError is the typed error for a value label that resolves
// to no code of an attribute — same envelope treatment as
// UnknownAttrError, with both the attribute and the offending value.
type UnknownValueError struct {
	Attr  string
	Value string
}

func (e *UnknownValueError) Error() string {
	return fmt.Sprintf("dataview: attribute %q has no value %q", e.Attr, e.Value)
}

// Column returns the named coded column, or an error.
func (v *View) Column(name string) (*Column, error) {
	i, ok := v.byName[name]
	if !ok {
		return nil, &UnknownAttrError{Attr: name}
	}
	return v.cols[i], nil
}

// walkDiv sets Tally's cut: results under Universe()/walkDiv rows are
// walked, larger ones intersected, as AndLen's cost follows the postings
// and the walk's the rows. BenchmarkTally (2 vCPUs) finds the walk faster
// at 10–12% of the table and intersecting faster at 28–29% on both
// fixtures: 116K of 1M Zipf rows walk in 3.3 ms, not 5.3 ms.
const walkDiv = 8

// Tally returns, for each column, how many rows of the set rows carry
// each view code: out[i][code]. NaN cells carry none. rows must span the
// view's row snapshot. The result's size alone picks one of two methods,
// and both give the same counts: a sparse result is walked once over all
// columns' code segments, and the rest is one intersect-popcount per
// posting, a column per task on the shared pool. A whole-table result
// takes the second, where AndLen reads each complete chunk's count off
// the posting's container.
func Tally(rows *dataset.Bitmap, cols []*Column) [][]int {
	out := make([][]int, len(cols))
	for i, c := range cols {
		if c.n != rows.Universe() {
			panic("dataview: Tally over a bitmap outside the view's row snapshot")
		}
		out[i] = make([]int, c.Cardinality())
	}
	if rows.Len() < rows.Universe()/walkDiv {
		segs := make([][][]int32, len(cols))
		for i, c := range cols {
			segs[i] = c.CodeSegs()
		}
		rows.ForEach(func(r int) {
			for i := range segs {
				if code := segs[i][r>>dataset.SegmentBits][r&dataset.SegmentMask]; code >= 0 {
					out[i][code]++
				}
			}
		})
		return out
	}
	parallel.Do(len(cols), func(i int) {
		for code, p := range cols[i].Postings() {
			out[i][code] = rows.AndLen(p)
		}
	})
	return out
}

// CodeCounts tallies code frequencies of the named column over rows.
func (v *View) CodeCounts(name string, rows dataset.RowSet) ([]int, error) {
	c, err := v.Column(name)
	if err != nil {
		return nil, err
	}
	counts := make([]int, c.Cardinality())
	for _, r := range rows {
		// NaN cells code -1 and belong to no bucket.
		if code := c.Code(r); code >= 0 {
			counts[code]++
		}
	}
	return counts, nil
}
