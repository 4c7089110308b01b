// Package engine executes CADQL statements against registered datasets:
// it resolves tables, evaluates WHERE clauses, builds and stores named
// CAD Views, and serves the HIGHLIGHT SIMILAR IUNITS and REORDER ROWS
// operations over them. It is the glue between the query language
// (package cadql), the storage layer (package dataset), and the CAD View
// core (package core).
package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"dbexplorer/internal/cadql"
	"dbexplorer/internal/core"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/expr"
	"dbexplorer/internal/featsel"
)

// Session holds the registered tables and the CAD Views created so far.
// It is not safe for concurrent use; create one per client.
type Session struct {
	tables map[string]*tableEntry
	views  map[string]*viewEntry
	// Seed drives deterministic clustering for every CAD View the
	// session builds.
	Seed int64
	// timeout, when set, bounds every ExecContext call that arrives
	// without its own deadline (see WithRequestTimeout).
	timeout time.Duration
}

// Option configures a Session at construction; it mirrors the functional
// options of the HTTP server (package httpapi).
type Option func(*Session)

// WithSeed sets the deterministic clustering seed for every CAD View the
// session builds.
func WithSeed(seed int64) Option {
	return func(s *Session) { s.Seed = seed }
}

// WithRequestTimeout bounds each ExecContext statement: when the caller's
// context has no deadline, the statement runs under this one. A
// non-positive d disables the default deadline.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Session) { s.timeout = d }
}

type tableEntry struct {
	table *dataset.Table
	view  *dataview.View
}

type viewEntry struct {
	view *core.CADView
}

// NewSession returns an empty session configured by opts.
func NewSession(opts ...Option) *Session {
	s := &Session{
		tables: make(map[string]*tableEntry),
		views:  make(map[string]*viewEntry),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Register adds a table under its own name, pre-building its discretized
// view (the paper's binning pre-processing step).
func (s *Session) Register(t *dataset.Table) error {
	return s.RegisterAs(t.Name(), t)
}

// RegisterAs adds a table under the given name.
func (s *Session) RegisterAs(name string, t *dataset.Table) error {
	if name == "" {
		return fmt.Errorf("engine: empty table name")
	}
	key := strings.ToLower(name)
	if _, ok := s.tables[key]; ok {
		return fmt.Errorf("engine: table %q already registered", name)
	}
	// The coded view (and its warmed posting/code caches) is a pure
	// function of the table snapshot, so sessions registering the same
	// table share one via the dataview memo instead of re-binning.
	v, err := dataview.Shared(t, dataview.Options{})
	if err != nil {
		return fmt.Errorf("engine: preparing table %q: %w", name, err)
	}
	s.tables[key] = &tableEntry{table: t, view: v}
	return nil
}

// Table returns a registered table by name (case-insensitive).
func (s *Session) Table(name string) (*dataset.Table, error) {
	e, ok := s.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return e.table, nil
}

// View returns a stored CAD View by name (case-insensitive).
func (s *Session) View(name string) (*core.CADView, error) {
	e, ok := s.views[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("engine: unknown CADVIEW %q", name)
	}
	return e.view, nil
}

// ExportViews writes the session's stored CAD Views as JSON, so an
// interface layer (or a later session) can reload them without
// rebuilding.
func (s *Session) ExportViews(w io.Writer) error {
	views := make([]*core.CADView, 0, len(s.views))
	for _, e := range s.views {
		views = append(views, e.view)
	}
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(views); err != nil {
		return fmt.Errorf("engine: exporting views: %w", err)
	}
	return nil
}

// ImportViews loads CAD Views previously written by ExportViews.
// Unnamed views and name collisions with existing views are rejected.
func (s *Session) ImportViews(r io.Reader) error {
	var views []*core.CADView
	if err := json.NewDecoder(r).Decode(&views); err != nil {
		return fmt.Errorf("engine: importing views: %w", err)
	}
	for _, v := range views {
		if v.Name == "" {
			return fmt.Errorf("engine: imported view has no name")
		}
		key := strings.ToLower(v.Name)
		if _, ok := s.views[key]; ok {
			return fmt.Errorf("engine: CADVIEW %q already exists", v.Name)
		}
	}
	for _, v := range views {
		s.views[strings.ToLower(v.Name)] = &viewEntry{view: v}
	}
	return nil
}

// ResultKind tags what a statement produced.
type ResultKind int

const (
	// KindRows is a relational result set (SELECT).
	KindRows ResultKind = iota
	// KindView is a CAD View (CREATE CADVIEW).
	KindView
	// KindHighlight is a highlight set (HIGHLIGHT SIMILAR IUNITS).
	KindHighlight
	// KindReorder is a reordered CAD View (REORDER ROWS).
	KindReorder
	// KindMessage is an informational result (SHOW, DESCRIBE, DROP).
	KindMessage
)

// Result is the outcome of executing one statement.
type Result struct {
	Kind ResultKind

	// KindRows fields.
	Table   *dataset.Table
	Rows    dataset.RowSet
	Columns []string // projection, schema order; nil = all

	// KindView / KindReorder fields.
	View *core.CADView
	// Similarities accompanies KindReorder (per-row Algorithm-2
	// distances, new row order).
	Similarities []core.RowSimilarity

	// KindHighlight fields.
	Highlight *core.Highlight

	// KindMessage field.
	Message string
}

// Exec parses and executes one CADQL statement — ExecContext without
// cancellation.
func (s *Session) Exec(query string) (*Result, error) {
	return s.ExecContext(context.Background(), query)
}

// ExecContext parses and executes one CADQL statement under ctx: CAD View
// builds (CREATE CADVIEW, EXPLAIN) are abortable mid-build and return
// ctx's error when it is canceled or its deadline passes. When the
// session has a WithRequestTimeout and ctx carries no deadline, the
// statement runs under the session default.
func (s *Session) ExecContext(ctx context.Context, query string) (*Result, error) {
	stmt, err := cadql.Parse(query)
	if err != nil {
		// Re-parse in recovery mode for the typed error: position, the
		// offending token, and the token categories accepted there. The
		// extra parse only happens on the error path.
		if rec := cadql.Recover(query); rec.Err != nil {
			return nil, rec.Err
		}
		return nil, err
	}
	return s.ExecStmtContext(ctx, stmt)
}

// ExecStmt executes a parsed statement — ExecStmtContext without
// cancellation.
func (s *Session) ExecStmt(stmt cadql.Stmt) (*Result, error) {
	return s.ExecStmtContext(context.Background(), stmt)
}

// ExecStmtContext executes a parsed statement under ctx.
func (s *Session) ExecStmtContext(ctx context.Context, stmt cadql.Stmt) (*Result, error) {
	if s.timeout > 0 {
		if _, hasDeadline := ctx.Deadline(); !hasDeadline {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.timeout)
			defer cancel()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch st := stmt.(type) {
	case *cadql.SelectStmt:
		return s.execSelect(st)
	case *cadql.CreateCADViewStmt:
		return s.execCreateCADView(ctx, st)
	case *cadql.HighlightStmt:
		return s.execHighlight(st)
	case *cadql.ReorderStmt:
		return s.execReorder(st)
	case *cadql.ShowStmt:
		return s.execShow(st)
	case *cadql.DescribeStmt:
		return s.execDescribe(st)
	case *cadql.DropStmt:
		return s.execDrop(st)
	case *cadql.ExplainStmt:
		return s.execExplain(ctx, st)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// resolveFrom materializes a FROM list: a registered table as-is, or
// the left-to-right natural join of several registered tables (the
// paper's "FROM table1, table2..." grammar) with a freshly built
// discretized view, shared through dataview.Shared like a registered
// table's.
func (s *Session) resolveFrom(tables []string) (*tableEntry, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("engine: empty FROM clause")
	}
	first, ok := s.tables[strings.ToLower(tables[0])]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", tables[0])
	}
	if len(tables) == 1 {
		return first, nil
	}
	joined := first.table
	for _, name := range tables[1:] {
		next, ok := s.tables[strings.ToLower(name)]
		if !ok {
			return nil, fmt.Errorf("engine: unknown table %q", name)
		}
		var err error
		joined, err = dataset.NaturalJoin(joined, next.table)
		if err != nil {
			return nil, err
		}
	}
	if joined.NumRows() == 0 {
		return nil, fmt.Errorf("engine: join of %s produced no rows", strings.Join(tables, ", "))
	}
	v, err := dataview.Shared(joined, dataview.Options{})
	if err != nil {
		return nil, err
	}
	return &tableEntry{table: joined, view: v}, nil
}

// where evaluates a WHERE clause over e's table and returns the result
// rows as a bitmap over a view of the table's current rows. The clause
// runs on the live table, which may have grown since e's view was built,
// so the view comes again from dataview.Shared — which rebuilds it only
// after the row count has changed — and the bitmap is clipped to it.
func (e *tableEntry) where(clause expr.Expr) (*dataview.View, *expr.Compiled, *dataset.Bitmap, error) {
	comp, err := expr.Compile(e.table, clause)
	if err != nil {
		return nil, nil, nil, err
	}
	bm, err := comp.Bitmap()
	if err != nil {
		return nil, nil, nil, err
	}
	v, err := dataview.Shared(e.table, dataview.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	return v, comp, bm.Resize(v.Rows()), nil
}

func (s *Session) execSelect(st *cadql.SelectStmt) (*Result, error) {
	e, err := s.resolveFrom(st.Tables)
	if err != nil {
		return nil, err
	}
	for _, c := range st.Columns {
		if e.table.ColIndex(c) < 0 {
			return nil, fmt.Errorf("engine: table %q has no column %q", e.table.Name(), c)
		}
	}
	// Compile once per statement: names bind to column indices, string
	// constants to dictionary codes, and the WHERE clause evaluates as
	// bitmap algebra over the table's posting index.
	comp, err := expr.Compile(e.table, st.Where)
	if err != nil {
		return nil, err
	}
	rows, err := comp.SelectAll()
	if err != nil {
		return nil, err
	}
	if len(st.OrderBy) > 0 {
		if err := sortRows(e.table, rows, st.OrderBy); err != nil {
			return nil, err
		}
	}
	if st.Limit > 0 && len(rows) > st.Limit {
		rows = rows[:st.Limit]
	}
	return &Result{Kind: KindRows, Table: e.table, Rows: rows, Columns: st.Columns}, nil
}

// sortRows orders a result set in place by the given keys; categorical
// attributes sort lexically, numeric ones numerically.
func sortRows(t *dataset.Table, rows dataset.RowSet, keys []cadql.OrderKey) error {
	type comparator func(a, b int) int
	cmps := make([]comparator, len(keys))
	for i, key := range keys {
		col := t.ColIndex(key.Attr)
		if col < 0 {
			return fmt.Errorf("engine: ORDER BY unknown attribute %q", key.Attr)
		}
		desc := key.Desc
		if cat := t.Cat(col); cat != nil {
			cmps[i] = func(a, b int) int {
				return flip(strings.Compare(cat.Value(a), cat.Value(b)), desc)
			}
		} else {
			num := t.Num(col)
			cmps[i] = func(a, b int) int {
				va, vb := num.Value(a), num.Value(b)
				switch {
				case va < vb:
					return flip(-1, desc)
				case va > vb:
					return flip(1, desc)
				default:
					return 0
				}
			}
		}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for _, cmp := range cmps {
			if c := cmp(rows[a], rows[b]); c != 0 {
				return c < 0
			}
		}
		return rows[a] < rows[b]
	})
	return nil
}

func flip(c int, desc bool) int {
	if desc {
		return -c
	}
	return c
}

func (s *Session) execShow(st *cadql.ShowStmt) (*Result, error) {
	var names []string
	switch st.What {
	case "TABLES":
		for _, e := range s.tables {
			names = append(names, fmt.Sprintf("%s (%d rows, %d attributes)", e.table.Name(), e.table.NumRows(), e.table.NumCols()))
		}
	case "CADVIEWS":
		for _, e := range s.views {
			names = append(names, fmt.Sprintf("%s (pivot %s, %d rows, k=%d)", e.view.Name, e.view.Pivot, len(e.view.Rows), e.view.K))
		}
	default:
		return nil, fmt.Errorf("engine: unknown SHOW target %q", st.What)
	}
	sort.Strings(names)
	if len(names) == 0 {
		names = []string{"(none)"}
	}
	return &Result{Kind: KindMessage, Message: strings.Join(names, "\n")}, nil
}

func (s *Session) execDescribe(st *cadql.DescribeStmt) (*Result, error) {
	e, ok := s.tables[strings.ToLower(st.Table)]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", st.Table)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d rows\n", e.table.Name(), e.table.NumRows())
	for i, a := range e.table.Schema() {
		queriable := "queriable"
		if !a.Queriable {
			queriable = "hidden"
		}
		col, err := e.view.Column(a.Name)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "  %-24s %-12s %-10s %d distinct codes", a.Name, a.Kind, queriable, col.Cardinality())
		if num := e.table.Num(i); num != nil && num.Len() > 0 {
			lo, hi, sum := num.Value(0), num.Value(0), 0.0
			for r := 0; r < num.Len(); r++ {
				v := num.Value(r)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
				sum += v
			}
			fmt.Fprintf(&b, "  min %g, max %g, mean %.1f", lo, hi, sum/float64(num.Len()))
		}
		b.WriteString("\n")
	}
	return &Result{Kind: KindMessage, Message: strings.TrimRight(b.String(), "\n")}, nil
}

// execExplain analyzes a CREATE CADVIEW without storing it: the result
// set size, per-pivot-value counts, the full chi-square ranking of
// candidate Compare Attributes, and the measured build timings.
func (s *Session) execExplain(ctx context.Context, st *cadql.ExplainStmt) (*Result, error) {
	c := st.Create
	e, err := s.resolveFrom(c.Tables)
	if err != nil {
		return nil, err
	}
	v, comp, rows, err := e.where(c.Where)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN CADVIEW %s on %s\n", c.Name, e.table.Name())
	fmt.Fprintf(&b, "where: vectorized (posting bitmaps), selectivity %.4f\n",
		float64(rows.Len())/float64(v.Rows()))
	if c.Where != nil {
		// The cost-chosen evaluation order with per-leaf cardinality
		// estimates: And children print cheapest-first, exactly as the
		// vectorized evaluator folds them.
		for _, line := range strings.Split(comp.Explain(), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	fmt.Fprintf(&b, "result set: %d of %d tuples\n", rows.Len(), v.Rows())
	if rows.Len() == 0 {
		return &Result{Kind: KindMessage, Message: b.String()}, nil
	}

	// Pivot value distribution: the codes the result's rows carry (NaN
	// pivot cells carry none).
	pivotCol, err := v.Column(c.Pivot)
	if err != nil {
		return nil, err
	}
	values := 0
	for _, n := range dataview.Tally(rows, []*dataview.Column{pivotCol})[0] {
		if n > 0 {
			values++
		}
	}
	fmt.Fprintf(&b, "pivot %s: %d values in result\n", c.Pivot, values)

	// Full candidate ranking, as the builder would see it.
	var candidates []string
	explicit := map[string]bool{c.Pivot: true}
	for _, a := range c.Compare {
		explicit[a] = true
	}
	for _, col := range v.Columns() {
		if !explicit[col.Attr] {
			candidates = append(candidates, col.Attr)
		}
	}
	if len(candidates) > 0 {
		scores, err := featsel.ChiSquareContext(ctx, v, rows.ToRowSet(), c.Pivot, candidates)
		if err != nil {
			return nil, err
		}
		b.WriteString("candidate Compare Attributes (chi-square desc):\n")
		for _, sc := range scores {
			fmt.Fprintf(&b, "  %-24s X²=%-12.1f p=%.4g\n", sc.Attr, sc.Stat, sc.PValue)
		}
	}
	if len(c.Compare) > 0 {
		fmt.Fprintf(&b, "explicit Compare Attributes: %s\n", strings.Join(c.Compare, ", "))
	}

	// Dry-run build for the chosen set and timings.
	view, tm, err := core.BuildBitmap(ctx, v, rows, core.Config{
		Pivot:        c.Pivot,
		CompareAttrs: c.Compare,
		MaxCompare:   c.MaxCompare,
		K:            c.IUnits,
		Seed:         s.Seed,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "chosen Compare Attributes: %s\n", strings.Join(view.CompareAttrs, ", "))
	b.WriteString("timings:")
	for _, st := range tm.Stages() {
		fmt.Fprintf(&b, " %s %v,", strings.ReplaceAll(st.Name, "_", "-"), st.D.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, " (total %v)\n", tm.Total().Round(time.Microsecond))
	b.WriteString("cluster detail:")
	for _, st := range tm.ClusterDetail.Stages() {
		fmt.Fprintf(&b, " %s %v,", st.Name, st.D.Round(time.Microsecond))
	}
	detail := tm.ClusterDetail
	encode := tm.Cluster - (detail.Seed + detail.Assign + detail.Update + detail.Reseed)
	fmt.Fprintf(&b, " (encode %v)\n", encode.Round(time.Microsecond))
	return &Result{Kind: KindMessage, Message: strings.TrimRight(b.String(), "\n")}, nil
}

func (s *Session) execDrop(st *cadql.DropStmt) (*Result, error) {
	key := strings.ToLower(st.View)
	if _, ok := s.views[key]; !ok {
		return nil, fmt.Errorf("engine: unknown CADVIEW %q", st.View)
	}
	delete(s.views, key)
	return &Result{Kind: KindMessage, Message: fmt.Sprintf("dropped CADVIEW %s", st.View)}, nil
}

func (s *Session) execCreateCADView(ctx context.Context, st *cadql.CreateCADViewStmt) (*Result, error) {
	e, err := s.resolveFrom(st.Tables)
	if err != nil {
		return nil, err
	}
	key := strings.ToLower(st.Name)
	if _, ok := s.views[key]; ok {
		return nil, fmt.Errorf("engine: CADVIEW %q already exists", st.Name)
	}
	v, _, rows, err := e.where(st.Where)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Pivot:        st.Pivot,
		CompareAttrs: st.Compare,
		MaxCompare:   st.MaxCompare,
		K:            st.IUnits,
		Seed:         s.Seed,
	}
	if len(st.OrderBy) > 0 {
		// ORDER BY ranks IUnits by the first key's cluster mean; ties in
		// cluster means across further keys are rare enough that the
		// paper's single-attribute examples are the supported surface.
		key := st.OrderBy[0]
		if _, err := e.table.NumByName(key.Attr); err != nil {
			return nil, fmt.Errorf("engine: ORDER BY needs a numeric attribute: %w", err)
		}
		if key.Desc {
			cfg.Preference = core.ByMeanDescending(key.Attr)
		} else {
			cfg.Preference = core.ByMeanAscending(key.Attr)
		}
	}
	view, _, err := core.BuildBitmap(ctx, v, rows, cfg)
	if err != nil {
		return nil, err
	}
	view.Name = st.Name
	s.views[key] = &viewEntry{view: view}
	return &Result{Kind: KindView, View: view}, nil
}

func (s *Session) execHighlight(st *cadql.HighlightStmt) (*Result, error) {
	ve, ok := s.views[strings.ToLower(st.View)]
	if !ok {
		return nil, fmt.Errorf("engine: unknown CADVIEW %q", st.View)
	}
	h, err := core.HighlightSimilar(ve.view, st.PivotValue, st.Rank, st.Threshold)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: KindHighlight, View: ve.view, Highlight: h}, nil
}

func (s *Session) execReorder(st *cadql.ReorderStmt) (*Result, error) {
	ve, ok := s.views[strings.ToLower(st.View)]
	if !ok {
		return nil, fmt.Errorf("engine: unknown CADVIEW %q", st.View)
	}
	view, sims, err := core.ReorderRows(ve.view, st.PivotValue)
	if err != nil {
		return nil, err
	}
	if !st.Desc {
		// ASC = least similar first: reverse rows and distances, except
		// the reference row which stays identifiable by its 0 distance.
		for i, j := 0, len(view.Rows)-1; i < j; i, j = i+1, j-1 {
			view.Rows[i], view.Rows[j] = view.Rows[j], view.Rows[i]
			sims[i], sims[j] = sims[j], sims[i]
		}
	}
	// The reordered view replaces the stored one, as the interactive
	// TPFacet interface does on a pivot-value click.
	ve.view = view
	return &Result{Kind: KindReorder, View: view, Similarities: sims}, nil
}
