// Package suggest is the exploration-intelligence service behind
// POST /api/v1/{dataset}/suggest: CADQL statement completion and guided
// drill-down over a faceted filter set. It follows "SQL Query Completion
// for Data Exploration" (candidates ranked by selectivity and
// interestingness under the current WHERE prefix) and "Interactive
// Browsing and Navigation in Relational Databases" (navigation guidance
// with dead-end avoidance) — the paper's premise being that exploratory
// users do not know the data well enough to write precise queries.
//
// Everything on the hot path is posting-bitmap algebra: value counts —
// dictionary values and numeric histogram bins alike — are fused
// intersect-popcounts (Bitmap.AndLen) of the view's posting sets with
// the prefix bitmap, numeric threshold probes are binary searches over
// the index's sorted orders (Index.NumCmpRangeLen), and attribute
// ranking is chi-square over contingency counts assembled from those
// popcounts. After the lazy one-time posting builds, no request ever
// scans table rows. The optional Model (functional dependencies + a
// Chow-Liu tree Bayes net, mined once per view snapshot) adds interestingness:
// conditional probabilities under pinned parents and FD-based downranking
// of determined attributes. Without a model the service degrades to
// selectivity-only ranking.
package suggest

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"dbexplorer/internal/bayesnet"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/expr"
	"dbexplorer/internal/fault"
	"dbexplorer/internal/fd"
)

// Defaults and caps for suggestion requests.
const (
	DefaultLimit     = 10  // candidates returned when the request does not say
	MaxLimit         = 100 // hard cap on requested candidates
	DefaultMaxValues = 10  // per-attribute value suggestions in drill-down
)

// fdMaxError is the g3 threshold for treating a dependency as
// "determining" during ranking: fd's own reporting threshold.
const fdMaxError = fd.MaxError

// Model holds the per-dataset statistical context mined from the full
// table: approximate functional dependencies and a Chow-Liu tree Bayes
// net over the queriable attributes. It is immutable once built; the
// serving layer caches one per registration and rebuilds lazily after a
// re-register.
type Model struct {
	deps []fd.Dependency
	net  *bayesnet.Network
	// determinedBy maps a dependent attribute to the determinants whose
	// g3 error is below fdMaxError.
	determinedBy map[string][]string
}

// Dependencies returns the mined functional dependencies.
func (m *Model) Dependencies() []fd.Dependency { return m.deps }

// Network returns the learned Bayes net (may be nil if learning was
// skipped for lack of attributes).
func (m *Model) Network() *bayesnet.Network { return m.net }

// BuildModel mines the model from the view's row snapshot: one pairwise
// code-count sweep over the queriable attributes feeds both the FD
// miner and the Chow-Liu learner. This is the one deliberately
// row-scanning part of the package — it runs once per view snapshot,
// off the request hot path (the serving layer builds it lazily under a
// fault point and degrades on failure).
func BuildModel(ctx context.Context, v *dataview.View) (*Model, error) {
	if err := fault.Hit(ctx, fault.PointSuggestModel); err != nil {
		return nil, err
	}
	attrs := queriableAttrs(v)
	if len(attrs) < 2 {
		return nil, fmt.Errorf("suggest: need at least 2 queriable attributes, got %d", len(attrs))
	}
	pc, err := v.CountPairs(nil, attrs)
	if err != nil {
		return nil, fmt.Errorf("suggest: counting attribute pairs: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deps := fd.DiscoverPairs(pc)
	net, err := bayesnet.LearnPairs(pc, bayesnet.Options{})
	if err != nil {
		return nil, fmt.Errorf("suggest: Bayes net: %w", err)
	}
	m := &Model{deps: deps, net: net, determinedBy: make(map[string][]string)}
	for _, d := range deps {
		if d.Error <= fdMaxError {
			m.determinedBy[d.Dependent] = append(m.determinedBy[d.Dependent], d.Determinant)
		}
	}
	return m, nil
}

// MemoryBytes returns the bytes the model's probability tables hold;
// the mined dependencies add a few hundred bytes at most.
func (m *Model) MemoryBytes() int { return m.net.MemoryBytes() }

func queriableAttrs(v *dataview.View) []string {
	schema := v.Table().Schema()
	var attrs []string
	for _, col := range v.Columns() {
		if schema[col.Col].Queriable {
			attrs = append(attrs, col.Attr)
		}
	}
	return attrs
}

// Suggester answers completion and drill-down requests for one dataset.
// It is safe for concurrent use: all state is immutable after New, and
// the lazy posting builds it triggers are internally synchronized.
//
// Every answer reads the view's row snapshot only. The table may grow
// past it (ingest appends before the serving view refreshes), so counts
// come from the view's posting sets, and numeric range probes on the
// live index are clipped to the snapshot's universe.
type Suggester struct {
	view  *dataview.View
	base  *dataset.Bitmap // the view's whole row snapshot
	model *Model          // nil = degraded (selectivity-only)
}

// New builds a Suggester over the view. model may be nil: the service
// then runs degraded — selectivity ranking only, no interestingness.
func New(v *dataview.View, model *Model) *Suggester {
	return &Suggester{
		view:  v,
		base:  dataset.FullBitmap(v.Rows()),
		model: model,
	}
}

// Degraded reports whether the suggester runs without a model.
func (s *Suggester) Degraded() bool { return s.model == nil }

// Warm materializes every queriable column's posting sets and numeric
// sort orders, so subsequent requests are pure bitmap algebra with no
// lazy builds. cmd/serve calls it at startup behind a flag; the
// zero-row-scan test calls it before arming the fault injector.
func (s *Suggester) Warm(ctx context.Context) error {
	schema := s.view.Table().Schema()
	ix := s.view.Table().Index()
	for _, col := range s.view.Columns() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !schema[col.Col].Queriable {
			continue
		}
		col.Postings()
		if col.Kind == dataset.Numeric {
			// Touch the sorted order through a public probe.
			ix.NumCmpRangeLen(col.Col, 0, true, true, false)
		}
	}
	return nil
}

// Selection is one attribute's selected values, facet semantics (values
// OR within the attribute, attributes AND across).
type Selection struct {
	Attr   string
	Values []string
}

// Options tunes one suggestion request.
type Options struct {
	// Limit bounds ranked candidates (completion) or recommended
	// attributes (drill-down). 0 means DefaultLimit; capped at MaxLimit.
	Limit int
	// MaxValues bounds per-attribute value lists in drill-down
	// (0 = DefaultMaxValues).
	MaxValues int
	// IncludeDeadEnds keeps zero-count values in drill-down output,
	// flagged, instead of pruning them.
	IncludeDeadEnds bool
}

func (o Options) limit() int {
	switch {
	case o.Limit <= 0:
		return DefaultLimit
	case o.Limit > MaxLimit:
		return MaxLimit
	default:
		return o.Limit
	}
}

func (o Options) maxValues() int {
	switch {
	case o.MaxValues <= 0:
		return DefaultMaxValues
	case o.MaxValues > MaxLimit:
		return MaxLimit
	default:
		return o.MaxValues
	}
}

// prefix resolves a set of conjunctive predicates to (bitmap, count)
// via pure index algebra, plus the equality pins it implies
// (attr -> value for every Eq predicate, feeding Bayes-net conditioning).
type prefix struct {
	bm    *dataset.Bitmap
	total int
	pins  map[string]string
	attrs map[string]bool // attributes already constrained
}

func (s *Suggester) emptyPrefix() *prefix {
	return &prefix{
		bm:    s.base,
		total: s.base.Len(),
		pins:  map[string]string{},
		attrs: map[string]bool{},
	}
}

// conjunctPrefix folds completed WHERE conjuncts into a prefix bitmap.
// Unknown attributes and values surface as the dataview typed errors so
// the serving layer can answer bad_attribute.
func (s *Suggester) conjunctPrefix(conjuncts []expr.Expr) (*prefix, error) {
	p := s.emptyPrefix()
	for _, e := range conjuncts {
		bm, err := s.predicateBitmap(e)
		if err != nil {
			return nil, err
		}
		p.bm = p.bm.And(bm)
		switch pred := e.(type) {
		case *expr.Cmp:
			p.attrs[pred.Attr] = true
			if pred.Op == expr.Eq {
				p.pins[pred.Attr] = pred.Str
			}
		case *expr.In:
			p.attrs[pred.Attr] = true
			if len(pred.Values) == 1 {
				p.pins[pred.Attr] = pred.Values[0]
			}
		case *expr.Between:
			p.attrs[pred.Attr] = true
		}
	}
	p.total = p.bm.Len()
	return p, nil
}

// predicateBitmap resolves one predicate to a row bitmap using posting
// sets (categorical) or sorted-order range probes (numeric) — never a
// row scan.
func (s *Suggester) predicateBitmap(e expr.Expr) (*dataset.Bitmap, error) {
	switch pred := e.(type) {
	case *expr.Cmp:
		col, err := s.view.Column(pred.Attr)
		if err != nil {
			return nil, err
		}
		if col.Kind == dataset.Categorical {
			switch pred.Op {
			case expr.Eq, expr.Ne:
			default:
				return nil, fmt.Errorf("suggest: operator %s is not valid for categorical attribute %q", pred.Op, pred.Attr)
			}
			code := col.CodeOf(pred.Str)
			if code < 0 {
				return nil, &dataview.UnknownValueError{Attr: pred.Attr, Value: pred.Str}
			}
			eq := col.Postings()[code]
			if pred.Op == expr.Ne {
				return s.base.AndNot(eq), nil
			}
			return eq, nil
		}
		c := pred.Num
		if math.IsNaN(c) {
			v, err := strconv.ParseFloat(pred.Str, 64)
			if err != nil {
				return nil, &dataview.UnknownValueError{Attr: pred.Attr, Value: pred.Str}
			}
			c = v
		}
		switch pred.Op {
		case expr.Eq:
			return s.numCmp(col.Col, c, true, false, false), nil
		case expr.Ne:
			return s.base.AndNot(s.numCmp(col.Col, c, true, false, false)), nil
		case expr.Lt:
			return s.numCmp(col.Col, c, false, true, false), nil
		case expr.Le:
			return s.numCmp(col.Col, c, true, true, false), nil
		case expr.Gt:
			return s.numCmp(col.Col, c, false, false, true), nil
		case expr.Ge:
			return s.numCmp(col.Col, c, true, false, true), nil
		}
		return nil, fmt.Errorf("suggest: unsupported operator %v", pred.Op)
	case *expr.In:
		col, err := s.view.Column(pred.Attr)
		if err != nil {
			return nil, err
		}
		bm := dataset.NewBitmap(s.base.Universe())
		for _, v := range pred.Values {
			if col.Kind == dataset.Categorical {
				code := col.CodeOf(v)
				if code < 0 {
					return nil, &dataview.UnknownValueError{Attr: pred.Attr, Value: v}
				}
				bm.OrWith(col.Postings()[code])
			} else {
				c, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, &dataview.UnknownValueError{Attr: pred.Attr, Value: v}
				}
				bm.OrWith(s.numCmp(col.Col, c, true, false, false))
			}
		}
		return bm, nil
	case *expr.Between:
		col, err := s.view.Column(pred.Attr)
		if err != nil {
			return nil, err
		}
		if col.Kind != dataset.Numeric {
			return nil, fmt.Errorf("suggest: BETWEEN requires a numeric attribute, %q is categorical", pred.Attr)
		}
		return s.view.Table().Index().NumRange(col.Col, pred.Lo, pred.Hi).Resize(s.base.Universe()), nil
	default:
		return nil, fmt.Errorf("suggest: unsupported predicate %T", e)
	}
}

// numCmp resolves a numeric comparison (see dataset.Index.NumCmpRange)
// over the view's snapshot: the live index may cover rows appended after
// the view, so its answer is clipped to the view's universe.
func (s *Suggester) numCmp(col int, c float64, includeEq, below, above bool) *dataset.Bitmap {
	return s.view.Table().Index().NumCmpRange(col, c, includeEq, below, above).Resize(s.base.Universe())
}

// selectionPrefix folds a faceted filter set (values OR within an
// attribute, attributes AND) into a prefix bitmap.
func (s *Suggester) selectionPrefix(sels []Selection) (*prefix, error) {
	p := s.emptyPrefix()
	schema := s.view.Table().Schema()
	for _, sel := range sels {
		col, err := s.view.Column(sel.Attr)
		if err != nil {
			return nil, err
		}
		if !schema[col.Col].Queriable {
			return nil, fmt.Errorf("suggest: attribute %q is not queriable", sel.Attr)
		}
		if len(sel.Values) == 0 {
			return nil, fmt.Errorf("suggest: selection on %q has no values", sel.Attr)
		}
		postings := col.Postings()
		bm := dataset.NewBitmap(s.base.Universe())
		for _, v := range sel.Values {
			code := col.CodeOf(v)
			if code < 0 {
				return nil, &dataview.UnknownValueError{Attr: sel.Attr, Value: v}
			}
			bm.OrWith(postings[code])
		}
		p.bm = p.bm.And(bm)
		p.attrs[sel.Attr] = true
		if len(sel.Values) == 1 {
			p.pins[sel.Attr] = sel.Values[0]
		}
	}
	p.total = p.bm.Len()
	return p, nil
}

// interest returns the interestingness multiplier for a value candidate:
// the lift of its conditional probability under the prefix over its
// marginal — from the Bayes net when the candidate attribute's tree
// parent is pinned by the prefix, from observed counts otherwise.
// Clamped to [0.25, 4] so ranking stays selectivity-led (DESIGN.md §13).
func (s *Suggester) interest(p *prefix, attr, value string, count int, marginal float64) float64 {
	if marginal <= 0 {
		return 1
	}
	lift := 1.0
	if p.total > 0 && p.total < s.base.Len() {
		lift = (float64(count) / float64(p.total)) / marginal
	}
	if s.model != nil && s.model.net != nil {
		if parent := s.model.net.Parent(attr); parent != "" {
			if pv, ok := p.pins[parent]; ok {
				if cond, err := s.model.net.Prob(attr, value, pv); err == nil {
					lift = cond / marginal
				}
			}
		}
	}
	return math.Min(4, math.Max(0.25, lift))
}
