// Package facet implements faceted navigation (paper §5): the summary
// digest and filter model of a Solr-style baseline interface, and the
// TPFacet two-phased interface that integrates the CAD View. The §6 user
// study compares exactly these two systems.
package facet

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"dbexplorer/internal/core"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/parallel"
	"dbexplorer/internal/stats"
)

// ValueCount is one (value label, tuple count) entry of an attribute's
// facet summary.
type ValueCount struct {
	Value string
	Count int
}

// AttrSummary is one attribute's entry in the summary digest: every value
// appearing in the selected items with its tuple count.
type AttrSummary struct {
	Attr   string
	Values []ValueCount
}

// Digest is the faceted interface's query-panel summary: all attribute
// values appearing in the current result set, grouped by attribute, with
// tuple counts — what a Solr facet response shows.
type Digest struct {
	Attrs []AttrSummary

	mu      sync.Mutex     // guards the lazy index below
	byAttr  map[string]int // lazily built name → Attrs index; see Attr
	byAttrN int            // len(Attrs) when byAttr was built
}

// Attr returns the named attribute's summary, or nil. The name→index
// map is built lazily on first lookup (and rebuilt if Attrs grew since),
// so TPFacet rendering — which probes the digest once per attribute and
// value — stops scanning every summary per lookup. Safe for concurrent
// lookups: the lazy build is guarded so two renderers sharing one digest
// cannot race it.
func (d *Digest) Attr(name string) *AttrSummary {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.byAttr == nil || d.byAttrN != len(d.Attrs) {
		d.byAttrN = len(d.Attrs)
		d.byAttr = make(map[string]int, len(d.Attrs))
		for i := range d.Attrs {
			if _, dup := d.byAttr[d.Attrs[i].Attr]; !dup {
				d.byAttr[d.Attrs[i].Attr] = i
			}
		}
	}
	if i, ok := d.byAttr[name]; ok {
		return &d.Attrs[i]
	}
	return nil
}

// Count returns the tuple count of a value under an attribute, or 0.
func (d *Digest) Count(attr, value string) int {
	a := d.Attr(attr)
	if a == nil {
		return 0
	}
	for _, vc := range a.Values {
		if vc.Value == value {
			return vc.Count
		}
	}
	return 0
}

// Summarize builds the digest of rows over the view's attributes. rows
// are read as a set, packed as NewSession packs its base, so order and
// duplicates do not matter. When queriableOnly is set, non-queriable
// attributes are omitted — this is the paper's Limitation 2: the query
// panel hides them even though the data contains them.
func Summarize(v *dataview.View, rows dataset.RowSet, queriableOnly bool) *Digest {
	return tallyDigest(columns(v, queriableOnly), packRows(v, rows))
}

// columns returns the view's columns in schema order, only the
// queriable ones when queriableOnly is set.
func columns(v *dataview.View, queriableOnly bool) []*dataview.Column {
	schema := v.Table().Schema()
	var cols []*dataview.Column
	for _, col := range v.Columns() {
		if !queriableOnly || schema[col.Col].Queriable {
			cols = append(cols, col)
		}
	}
	return cols
}

// tallyDigest summarizes every column over rows, counted by dataview.Tally.
func tallyDigest(cols []*dataview.Column, rows *dataset.Bitmap) *Digest {
	counts := dataview.Tally(rows, cols)
	summaries := make([]AttrSummary, len(cols))
	for i, col := range cols {
		summaries[i] = summarize(col, counts[i])
	}
	return &Digest{Attrs: summaries}
}

// summarize lists the codes of col with a nonzero count in counts,
// count descending, then value ascending.
func summarize(col *dataview.Column, counts []int) AttrSummary {
	summary := AttrSummary{Attr: col.Attr}
	for code, c := range counts {
		if c > 0 {
			summary.Values = append(summary.Values, ValueCount{Value: col.Label(code), Count: c})
		}
	}
	slices.SortFunc(summary.Values, func(a, b ValueCount) int {
		return cmp.Or(b.Count-a.Count, strings.Compare(a.Value, b.Value))
	})
	return summary
}

// ExtendDigest returns the digest d — built with Summarize over rows
// [0, oldN) of the view — brought forward to cover [0, newN) after an
// append, by coding and counting only the newN-oldN delta rows instead
// of rescanning everything. The view's coding is reused as-is: delta
// cells of numeric attributes fall into the bins frozen at view
// construction (values outside the original domain clamp to the edge
// bins, exactly as Column.Code does), so the result is what Summarize
// would produce if the view's binning were held fixed. Cells that code
// outside the view's label range (the NaN path of a numeric column) are
// skipped. d is not modified; attribute selection (queriable-only or
// not) is inherited from d.
func ExtendDigest(v *dataview.View, d *Digest, oldN, newN int) *Digest {
	summaries := make([]AttrSummary, len(d.Attrs))
	parallel.Do(len(d.Attrs), func(i int) {
		old := &d.Attrs[i]
		col, err := v.Column(old.Attr)
		if err != nil || oldN >= newN {
			summaries[i] = AttrSummary{Attr: old.Attr, Values: append([]ValueCount(nil), old.Values...)}
			return
		}
		counts := make([]int, col.Cardinality())
		for _, vc := range old.Values {
			if code := col.CodeOf(vc.Value); code >= 0 {
				counts[code] = vc.Count
			}
		}
		for r := oldN; r < newN; r++ {
			if code := col.Code(r); code >= 0 && code < len(counts) {
				counts[code]++
			}
		}
		summaries[i] = summarize(col, counts)
	})
	return &Digest{Attrs: summaries}
}

// DigestSimilarity compares two digests: for each attribute present in
// either digest it takes the cosine similarity of the two value-count
// vectors (aligned by value label, missing values as zero) and returns
// the mean over attributes. This is the measure the user study hands to
// baseline subjects for "compare the summary digests" tasks and the
// retrieval-error metric of §6.2.3.
func DigestSimilarity(a, b *Digest) float64 {
	names := map[string]bool{}
	for _, s := range a.Attrs {
		names[s.Attr] = true
	}
	for _, s := range b.Attrs {
		names[s.Attr] = true
	}
	if len(names) == 0 {
		return 1
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	var total float64
	for _, name := range ordered {
		va, vb := valueVector(a.Attr(name)), valueVector(b.Attr(name))
		keys := map[string]bool{}
		for k := range va {
			keys[k] = true
		}
		for k := range vb {
			keys[k] = true
		}
		orderedKeys := make([]string, 0, len(keys))
		for k := range keys {
			orderedKeys = append(orderedKeys, k)
		}
		sort.Strings(orderedKeys)
		x := make([]float64, len(orderedKeys))
		y := make([]float64, len(orderedKeys))
		for i, k := range orderedKeys {
			x[i] = va[k]
			y[i] = vb[k]
		}
		total += stats.CosineSimilarity(x, y)
	}
	return total / float64(len(ordered))
}

func valueVector(s *AttrSummary) map[string]float64 {
	out := map[string]float64{}
	if s == nil {
		return out
	}
	for _, vc := range s.Values {
		out[vc.Value] = float64(vc.Count)
	}
	return out
}

// Session is a faceted-navigation session over a base result set: the
// user selects attribute values (multiple values of one attribute are
// OR-ed; attributes are AND-ed, the standard faceted model) and reads
// the digest of whatever remains. This is the Solr-style baseline of the
// user study.
type Session struct {
	view *dataview.View

	// mu guards every mutable field below. Selection changes and digest
	// refreshes may come from concurrent goroutines (one server session
	// shared across requests); the cached bitmaps and memoized result
	// would otherwise race. Methods snapshot what they need under the
	// lock and do the word-counting outside it.
	mu       sync.Mutex
	selected map[string]map[int]bool // attr -> selected codes
	order    []string                // selection order for rendering

	// Incremental state: the base set as a bitmap, one cached filter
	// bitmap per selected attribute (the OR of that attribute's selected
	// posting bitmaps), and the memoized current result bitmap and its
	// digest. Adding or removing one facet selection invalidates only that
	// attribute's bitmap, so refreshing the digest intersects cached words
	// instead of re-evaluating the whole stack per row.
	universe int
	baseBM   *dataset.Bitmap
	attrBM   map[string]*dataset.Bitmap
	rowsBM   *dataset.Bitmap // nil = stale
	digest   *Digest         // Digest of rowsBM; nil = not yet counted
}

// NewSession starts a session over the given base result set, packed
// into a bitmap over the view's row snapshot (see NewSessionBitmap).
// base must lie within that snapshot; like every row set the session
// returns, it is read as a set, so order and duplicates do not matter.
func NewSession(v *dataview.View, base dataset.RowSet) *Session {
	return NewSessionBitmap(v, packRows(v, base))
}

// packRows packs a row set into a bitmap over the view's row snapshot.
func packRows(v *dataview.View, rows dataset.RowSet) *dataset.Bitmap {
	n := v.Rows()
	if rows.IsAllRows(n) {
		// Exactly {0..n-1}: skip the per-row packing. Length alone does
		// not establish that (an unsorted or duplicated set of length n
		// would pack wrongly), so the check verifies element by element
		// and exits at the first mismatch.
		return dataset.FullBitmap(n)
	}
	return dataset.FromRowSet(n, rows)
}

// NewSessionBitmap starts a session over the base result set given as a
// bitmap. Its universe must be the view's row snapshot — not the live
// table row count, which may already have grown past the view under
// concurrent ingest — so every bitmap the session caches stays
// compatible with the view's posting sets. The session reads base and
// never modifies it; neither may the caller while the session is in use.
func NewSessionBitmap(v *dataview.View, base *dataset.Bitmap) *Session {
	return &Session{
		view:     v,
		selected: make(map[string]map[int]bool),
		universe: v.Rows(),
		baseBM:   base,
		attrBM:   make(map[string]*dataset.Bitmap),
	}
}

// invalidate drops the cached bitmaps touched by a selection change on
// attr. Callers hold s.mu.
func (s *Session) invalidate(attr string) {
	delete(s.attrBM, attr)
	s.rowsBM, s.digest = nil, nil
}

// filterBitmap returns attr's cached filter bitmap (the union of its
// selected values' posting sets), building it on first use after a
// selection change. Callers hold s.mu.
func (s *Session) filterBitmap(attr string) *dataset.Bitmap {
	if bm, ok := s.attrBM[attr]; ok {
		return bm
	}
	col, _ := s.view.Column(attr)
	postings := col.Postings()
	bm := dataset.NewBitmap(s.universe)
	for code := range s.selected[attr] {
		bm.OrWith(postings[code])
	}
	s.attrBM[attr] = bm
	return bm
}

// currentBitmap returns the memoized result bitmap base ∧ every
// attribute filter, rebuilding it word-wise from the cached per-attr
// bitmaps when stale. Callers hold s.mu and must treat the result as
// read-only; the returned snapshot stays valid after the lock is
// released even if a later selection replaces the memo.
func (s *Session) currentBitmap() *dataset.Bitmap {
	if s.rowsBM == nil {
		bm := s.baseBM
		for attr := range s.selected {
			bm = bm.And(s.filterBitmap(attr))
		}
		s.rowsBM = bm
	}
	return s.rowsBM
}

// View returns the session's data view.
func (s *Session) View() *dataview.View { return s.view }

// Bitmap returns the current result set as a bitmap over the view's row
// snapshot. It is the session's memo, shared with later calls: callers
// must not modify it.
func (s *Session) Bitmap() *dataset.Bitmap {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.currentBitmap()
}

// Select adds a value filter on a queriable attribute. Selecting a
// second value of the same attribute widens that attribute's filter
// (OR), as in every faceted interface.
func (s *Session) Select(attr, value string) error {
	col, err := s.view.Column(attr)
	if err != nil {
		return err
	}
	if !s.view.Table().Schema()[col.Col].Queriable {
		return fmt.Errorf("facet: attribute %q is not queriable through this interface", attr)
	}
	code := col.CodeOf(value)
	if code < 0 {
		return &dataview.UnknownValueError{Attr: attr, Value: value}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.selected[attr] == nil {
		s.selected[attr] = make(map[int]bool)
		s.order = append(s.order, attr)
	}
	s.selected[attr][code] = true
	s.invalidate(attr)
	return nil
}

// SelectValues applies one request filter: attr must resolve and values
// must not be empty, then each value is selected as by Select. /query,
// /cad and /suggest all filter through it, so two filters on one
// attribute are one filter (OR) on each.
func (s *Session) SelectValues(attr string, values []string) error {
	if _, err := s.view.Column(attr); err != nil {
		return err
	}
	if len(values) == 0 {
		return fmt.Errorf("facet: selection on %q has no values", attr)
	}
	for _, v := range values {
		if err := s.Select(attr, v); err != nil {
			return err
		}
	}
	return nil
}

// Deselect removes one value filter; removing the last value of an
// attribute clears that attribute entirely.
func (s *Session) Deselect(attr, value string) error {
	col, err := s.view.Column(attr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	codes, ok := s.selected[attr]
	if !ok {
		return fmt.Errorf("facet: attribute %q has no active filters", attr)
	}
	code := col.CodeOf(value)
	if code < 0 || !codes[code] {
		return fmt.Errorf("facet: value %q of %q is not selected", value, attr)
	}
	delete(codes, code)
	if len(codes) == 0 {
		s.clearAttr(attr)
	} else {
		s.invalidate(attr)
	}
	return nil
}

// ClearAttr removes all filters on one attribute.
func (s *Session) ClearAttr(attr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.selected[attr]; ok {
		s.clearAttr(attr)
	}
}

// clearAttr removes attr's filter state. Callers hold s.mu.
func (s *Session) clearAttr(attr string) {
	delete(s.selected, attr)
	for i, a := range s.order {
		if a == attr {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.invalidate(attr)
}

// Reset removes every filter.
func (s *Session) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.selected = make(map[string]map[int]bool)
	s.order = nil
	s.attrBM = make(map[string]*dataset.Bitmap)
	s.rowsBM, s.digest = nil, nil
}

// Selections returns the active filters as attribute -> selected value
// labels, in selection order.
func (s *Session) Selections() []struct {
	Attr   string
	Values []string
} {
	var out []struct {
		Attr   string
		Values []string
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, attr := range s.order {
		col, _ := s.view.Column(attr)
		var vals []string
		for code := 0; code < col.Cardinality(); code++ {
			if s.selected[attr][code] {
				vals = append(vals, col.Label(code))
			}
		}
		out = append(out, struct {
			Attr   string
			Values []string
		}{attr, vals})
	}
	return out
}

// Rows evaluates the filter stack over the base result set: the cached
// per-attribute bitmaps intersect word-wise and the result unpacks to a
// sorted row set.
func (s *Session) Rows() dataset.RowSet { return s.Bitmap().ToRowSet() }

// Page returns the result rows ranked [offset, offset+limit) in row
// order, plus the total result count. Only the page is materialized;
// rows before it are skipped by cached chunk cardinalities
// (Bitmap.Slice). limit < 0 means "to the end".
func (s *Session) Page(offset, limit int) (dataset.RowSet, int) {
	bm := s.Bitmap()
	return bm.Slice(offset, limit), bm.Len()
}

// Count returns the current result-set size (a popcount over the
// memoized result bitmap; no rows are materialized).
func (s *Session) Count() int { return s.Bitmap().Len() }

// Digest returns the queriable-attribute summary of the current result
// set — the baseline interface's whole view of the data, counted by
// dataview.Tally. It is memoized with the result bitmap until the next
// selection change and shared with later calls: callers must not modify
// it.
func (s *Session) Digest() *Digest {
	s.mu.Lock()
	rows, memo := s.currentBitmap(), s.digest
	s.mu.Unlock()
	return s.memoDigest(rows, memo)
}

// memoDigest returns memo, read with rows, or else counts rows' digest
// outside the lock and memoizes it if rows is still the result.
func (s *Session) memoDigest(rows *dataset.Bitmap, memo *Digest) *Digest {
	if memo != nil {
		return memo
	}
	d := tallyDigest(columns(s.view, true), rows)
	s.mu.Lock()
	if s.rowsBM == rows {
		s.digest = d
	}
	s.mu.Unlock()
	return d
}

// PanelDigest returns the multi-select facet panel counts that
// e-commerce interfaces (and Solr's tag/exclude faceting) display: for
// each attribute, value counts are computed with that attribute's *own*
// filters excluded, so a user who selected Make=Ford still sees how many
// Jeeps would match their other filters. Only filtered attributes are
// counted again; the rest are Digest's memo.
func (s *Session) PanelDigest() *Digest {
	// Snapshot the result, its digest memo and every attribute's filter
	// bitmap under one lock; the counting below then works on immutable
	// bitmaps and never touches session state.
	s.mu.Lock()
	rows, memo, base := s.currentBitmap(), s.digest, s.baseBM
	attrs := append([]string(nil), s.order...)
	filters := make([]*dataset.Bitmap, len(attrs))
	for i, attr := range attrs {
		filters[i] = s.filterBitmap(attr)
	}
	s.mu.Unlock()
	own := make([]AttrSummary, len(attrs))
	parallel.Do(len(attrs), func(i int) {
		// base ∧ every attribute filter except this attribute's own — the
		// tag/exclude counting rule.
		bm := base
		for j, f := range filters {
			if j != i {
				bm = bm.And(f)
			}
		}
		col, _ := s.view.Column(attrs[i])
		own[i] = summarize(col, dataview.Tally(bm, []*dataview.Column{col})[0])
	})
	panel := &Digest{Attrs: append([]AttrSummary(nil), s.memoDigest(rows, memo).Attrs...)}
	for _, a := range own {
		*panel.Attr(a.Attr) = a
	}
	return panel
}

// TPFacet is the paper's two-phased faceted interface: the same filter
// model as Session plus the CAD View phase. At any moment the user sees
// either the results panel (digest) or the CAD View; BuildCADView
// renders the latter for the current result set.
type TPFacet struct {
	*Session
}

// NewTPFacet starts a TPFacet session.
func NewTPFacet(v *dataview.View, base dataset.RowSet) *TPFacet {
	return &TPFacet{Session: NewSession(v, base)}
}

// BuildCADView computes the CAD View of the current result set for the
// given pivot. Unlike filters, the pivot may be any attribute — the CAD
// View is how non-queriable attributes become visible (Limitation 2).
func (t *TPFacet) BuildCADView(cfg core.Config) (*core.CADView, error) {
	view, _, err := core.BuildBitmap(context.Background(), t.view, t.Bitmap(), cfg)
	return view, err
}

// Phase names the two TPFacet phases of §5.
type Phase int

const (
	// PhaseResults shows the result panel / digest — right when the
	// result set is small enough to browse.
	PhaseResults Phase = iota
	// PhaseQueryRevision shows the CAD View — right when the result set
	// is too large to browse tuple by tuple.
	PhaseQueryRevision
)

// String names the phase.
func (p Phase) String() string {
	if p == PhaseResults {
		return "results"
	}
	return "query-revision"
}

// DefaultBrowseLimit is the result size above which SuggestPhase steers
// the user to the CAD View.
const DefaultBrowseLimit = 50

// SuggestPhase implements §5's "a system that intelligently chooses a
// default view, based on the size of query results": small results go to
// the result panel, large ones to the CAD View. limit 0 uses
// DefaultBrowseLimit.
func (t *TPFacet) SuggestPhase(limit int) Phase {
	if limit <= 0 {
		limit = DefaultBrowseLimit
	}
	if t.Count() <= limit {
		return PhaseResults
	}
	return PhaseQueryRevision
}
