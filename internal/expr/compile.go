// Vectorized predicate evaluation: Compile binds an expression to a
// table once per query — attribute names to column indices, categorical
// constants to dictionary codes — and evaluates it as word-wise bitmap
// algebra over the table's posting index (dataset.Index). Leaves resolve
// to precomputed posting bitmaps (categorical equality, IN) or two
// binary searches over a value-sorted row order (numeric comparisons,
// BETWEEN); AND/OR/NOT combine whole words at a time. Compile accepts
// only this package's node types and operators, so every plan runs on
// bitmaps. Expr.Eval stays the per-row semantics: the equivalence tests
// evaluate it in a plain row loop and pin every compiled result to it.
package expr

import (
	"fmt"
	"sort"
	"strings"

	"dbexplorer/internal/dataset"
)

// Compiled is a predicate validated against and bound to one table,
// ready to evaluate over row sets. A nil expression compiles to
// "select everything".
//
// The plan owns its leaf bindings: each Cmp/Between/In node is resolved
// against the table once at Compile time and the binding lives in the
// plan, so two Compiled plans of the same parsed expression against two
// different tables evaluate repeatedly without re-binding (the node's
// single-slot cache would thrash on every alternation). The plan is
// immutable after Compile and safe for concurrent use.
type Compiled struct {
	t     *dataset.Table
	e     Expr
	binds map[Expr]any // leaf node → *cmpBind / *betweenBind / *inBind
}

// Compile validates e against t and prepares the evaluation plan. An
// expression tree containing a node type from outside this package is a
// validation error: the planner cannot price or lower it.
func Compile(t *dataset.Table, e Expr) (*Compiled, error) {
	if e != nil {
		if err := e.Validate(t); err != nil {
			return nil, err
		}
	}
	c := &Compiled{t: t, e: e}
	if e != nil {
		c.binds = make(map[Expr]any)
		if err := c.bindTree(e); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// bindTree resolves every leaf of the tree against the plan's table and
// stores the bindings in the plan; it rejects node types from outside
// this package.
func (c *Compiled) bindTree(e Expr) error {
	switch n := e.(type) {
	case *Cmp:
		b, err := n.resolve(c.t)
		if err != nil {
			return err
		}
		c.binds[n] = b
	case *Between:
		b, err := n.resolve(c.t)
		if err != nil {
			return err
		}
		c.binds[n] = b
	case *In:
		b, err := n.resolve(c.t)
		if err != nil {
			return err
		}
		c.binds[n] = b
	case *And:
		for _, k := range n.Kids {
			if err := c.bindTree(k); err != nil {
				return err
			}
		}
	case *Or:
		for _, k := range n.Kids {
			if err := c.bindTree(k); err != nil {
				return err
			}
		}
	case *Not:
		return c.bindTree(n.Kid)
	default:
		return fmt.Errorf("expr: unsupported expression type %T (%s)", e, e)
	}
	return nil
}

// cmpBindFor returns the plan's binding for n, falling back to the
// node-level cache when the dictionary grew after Compile (the plan is
// immutable, so the refreshed binding is not stored back).
func (c *Compiled) cmpBindFor(n *Cmp) (*cmpBind, error) {
	if b, ok := c.binds[n].(*cmpBind); ok && b.current(c.t) {
		return b, nil
	}
	return n.bindTo(c.t)
}

func (c *Compiled) betweenBindFor(n *Between) (*betweenBind, error) {
	if b, ok := c.binds[n].(*betweenBind); ok && b.current(c.t) {
		return b, nil
	}
	return n.bindTo(c.t)
}

func (c *Compiled) inBindFor(n *In) (*inBind, error) {
	if b, ok := c.binds[n].(*inBind); ok && b.current(c.t) {
		return b, nil
	}
	return n.bindTo(c.t)
}

// Bitmap evaluates the predicate over the whole table and returns the
// matching row set as a bitmap. The result is owned by the caller:
// single-leaf plans whose evaluation would alias an index posting bitmap
// are cloned at this boundary, so mutating the result (OrWith/AndWith
// folds) can never corrupt the table's index.
func (c *Compiled) Bitmap() (*dataset.Bitmap, error) {
	ix := c.t.Index()
	if c.e == nil {
		return dataset.FullBitmap(ix.Rows()), nil
	}
	bm, shared, err := c.evalBitmap(ix, c.e)
	if err != nil {
		return nil, err
	}
	if shared {
		bm = bm.Clone()
	}
	return bm, nil
}

// Select returns the rows of the input set satisfying the predicate, in
// input order — exactly the rows of a per-row Eval loop.
func (c *Compiled) Select(rows dataset.RowSet) (dataset.RowSet, error) {
	if c.e == nil {
		return rows.Clone(), nil
	}
	bm, _, err := c.evalBitmap(c.t.Index(), c.e)
	if err != nil {
		return nil, err
	}
	// The full-table row set unpacks straight from the bitmap — but only
	// when the input really is {0..n-1} in order. Length alone does not
	// establish that (an unsorted or duplicated input of length n would
	// silently come back re-ordered), so verify; the scan exits at the
	// first mismatch and genuine subsets pay O(1).
	if rows.IsAllRows(bm.Universe()) {
		return bm.ToRowSet(), nil
	}
	// Genuine subsets keep their input order; out-of-universe rows drop.
	return rows.Filter(bm.Contains), nil
}

// SelectAll returns the full-table rows satisfying the predicate —
// exactly Select(dataset.AllRows(t.NumRows())), without materializing a
// row id per table row just to verify and discard it. Statement
// execution starts every WHERE from the whole table, so the input set
// was pure overhead: the result bitmap unpacks directly.
func (c *Compiled) SelectAll() (dataset.RowSet, error) {
	if c.e == nil {
		return dataset.AllRows(c.t.NumRows()), nil
	}
	bm, _, err := c.evalBitmap(c.t.Index(), c.e)
	if err != nil {
		return nil, err
	}
	return bm.ToRowSet(), nil
}

// evalBitmap recursively lowers the expression to bitmap algebra. The
// shared result reports whether the bitmap aliases an index-owned
// posting set (categorical equality leaves); shared results are
// read-only and must be cloned before crossing an API boundary that
// allows mutation. Combining nodes always allocate fresh bitmaps —
// except single-child AND/OR, which pass their child through unchanged
// and therefore propagate its shared flag.
func (c *Compiled) evalBitmap(ix *dataset.Index, e Expr) (bm *dataset.Bitmap, shared bool, err error) {
	switch n := e.(type) {
	case *Cmp:
		b, err := c.cmpBindFor(n)
		if err != nil {
			return nil, false, err
		}
		if b.cat != nil {
			eq := ix.CatEq(b.col, b.code)
			if n.Op == Eq {
				return eq, true, nil
			}
			return eq.Not(), false, nil
		}
		switch n.Op {
		case Eq:
			return ix.NumCmpRange(b.col, n.Num, true, false, false), false, nil
		case Ne:
			// NaN cells fall outside the Eq range, so the complement
			// includes them — matching the scalar v != c.
			return ix.NumCmpRange(b.col, n.Num, true, false, false).Not(), false, nil
		case Lt:
			return ix.NumCmpRange(b.col, n.Num, false, true, false), false, nil
		case Le:
			return ix.NumCmpRange(b.col, n.Num, true, true, false), false, nil
		case Gt:
			return ix.NumCmpRange(b.col, n.Num, false, false, true), false, nil
		case Ge:
			return ix.NumCmpRange(b.col, n.Num, true, false, true), false, nil
		}
		return nil, false, fmt.Errorf("expr: bad operator %d", int(n.Op))
	case *Between:
		bs, err := c.betweenBindFor(n)
		if err != nil {
			return nil, false, err
		}
		return ix.NumRange(bs.col, n.Lo, n.Hi), false, nil
	case *In:
		b, err := c.inBindFor(n)
		if err != nil {
			return nil, false, err
		}
		out := dataset.NewBitmap(ix.Rows())
		for code, ok := range b.member {
			if ok {
				out.OrWith(ix.CatEq(b.col, int32(code)))
			}
		}
		return out, false, nil
	case *And:
		if len(n.Kids) == 0 {
			// An empty conjunction is vacuously true, as in And.Eval.
			return dataset.FullBitmap(ix.Rows()), false, nil
		}
		// Cost-based ordering: evaluate children cheapest-first so the
		// running intersection collapses to a sparse set as early as
		// possible — every later And then costs the small side's
		// cardinality, not the chunk width. Conjunction is commutative,
		// so the result is bit-identical to source order.
		kids := c.orderByEstimate(ix, n.Kids)
		acc, accShared, err := c.evalBitmap(ix, kids[0])
		if err != nil {
			return nil, false, err
		}
		for _, k := range kids[1:] {
			if acc.Len() == 0 {
				// Empty intermediate: the conjunction is decided, skip
				// the remaining children (their bindings were validated
				// at Compile, so no error surface is lost).
				break
			}
			kb, _, err := c.evalBitmap(ix, k)
			if err != nil {
				return nil, false, err
			}
			if accShared {
				acc = acc.And(kb) // allocates: acc is owned from here on
				accShared = false
			} else {
				acc.AndWith(kb) // fold in place, no per-step allocation
			}
		}
		return acc, accShared, nil
	case *Or:
		if len(n.Kids) == 0 {
			// An empty disjunction is vacuously false, as in Or.Eval.
			return dataset.NewBitmap(ix.Rows()), false, nil
		}
		acc, accShared, err := c.evalBitmap(ix, n.Kids[0])
		if err != nil {
			return nil, false, err
		}
		for _, k := range n.Kids[1:] {
			kb, _, err := c.evalBitmap(ix, k)
			if err != nil {
				return nil, false, err
			}
			acc = acc.Or(kb)
			accShared = false
		}
		return acc, accShared, nil
	case *Not:
		kb, _, err := c.evalBitmap(ix, n.Kid)
		if err != nil {
			return nil, false, err
		}
		return kb.Not(), false, nil
	default:
		return nil, false, fmt.Errorf("expr: unsupported expression type %T", e)
	}
}

// orderByEstimate returns the children sorted ascending by estimated
// cardinality (stable, so equal estimates keep source order). With a
// single child there is nothing to order and the input is returned.
func (c *Compiled) orderByEstimate(ix *dataset.Index, kids []Expr) []Expr {
	if len(kids) < 2 {
		return kids
	}
	type ranked struct {
		e   Expr
		est int
	}
	rs := make([]ranked, len(kids))
	for i, k := range kids {
		rs[i] = ranked{k, c.estimate(ix, k)}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].est < rs[j].est })
	out := make([]Expr, len(kids))
	for i, r := range rs {
		out[i] = r.e
	}
	return out
}

// estimate returns the expected cardinality of e over the index's
// universe. Leaf estimates are exact: categorical equality and IN read
// the dictionary frequencies (Index.CatFreqs — one column pass, far
// cheaper than building the postings being priced), numeric comparisons
// and BETWEEN are two binary searches over the value-sorted order.
// Combining nodes use the standard independence-free bounds — And takes
// the minimum child, Or the capped sum, Not the complement — which is
// all the planner needs: only the relative order of And children
// matters, and the bounds preserve it. A leaf whose binding fails
// estimates as the full universe, so it sorts last and never masks a
// cheap leaf.
func (c *Compiled) estimate(ix *dataset.Index, e Expr) int {
	n := ix.Rows()
	switch node := e.(type) {
	case *Cmp:
		b, err := c.cmpBindFor(node)
		if err != nil {
			return n
		}
		if b.cat != nil {
			eq := 0
			if freqs := ix.CatFreqs(b.col); b.code >= 0 && int(b.code) < len(freqs) {
				eq = int(freqs[b.code])
			}
			if node.Op == Eq {
				return eq
			}
			return n - eq // Ne
		}
		switch node.Op {
		case Eq:
			return ix.NumCmpRangeLen(b.col, node.Num, true, false, false)
		case Ne:
			return n - ix.NumCmpRangeLen(b.col, node.Num, true, false, false)
		case Lt:
			return ix.NumCmpRangeLen(b.col, node.Num, false, true, false)
		case Le:
			return ix.NumCmpRangeLen(b.col, node.Num, true, true, false)
		case Gt:
			return ix.NumCmpRangeLen(b.col, node.Num, false, false, true)
		case Ge:
			return ix.NumCmpRangeLen(b.col, node.Num, true, false, true)
		}
		return n
	case *Between:
		b, err := c.betweenBindFor(node)
		if err != nil {
			return n
		}
		return ix.NumRangeLen(b.col, node.Lo, node.Hi)
	case *In:
		b, err := c.inBindFor(node)
		if err != nil {
			return n
		}
		freqs := ix.CatFreqs(b.col)
		total := 0
		for code, ok := range b.member {
			if ok && code < len(freqs) {
				total += int(freqs[code])
			}
		}
		return total
	case *And:
		if len(node.Kids) == 0 {
			return n
		}
		est := n
		for _, k := range node.Kids {
			if ke := c.estimate(ix, k); ke < est {
				est = ke
			}
		}
		return est
	case *Or:
		est := 0
		for _, k := range node.Kids {
			est += c.estimate(ix, k)
			if est >= n {
				return n
			}
		}
		return est
	case *Not:
		return n - c.estimate(ix, node.Kid)
	default:
		return n
	}
}

// Explain renders the compiled evaluation plan: one line per node with
// its estimated cardinality, And children printed in the cost-chosen
// (cheapest-first) order the evaluator will use. The engine's EXPLAIN
// statement embeds this under its "where:" line.
func (c *Compiled) Explain() string {
	if c.e == nil {
		return "true (select everything)"
	}
	var b strings.Builder
	c.explainNode(c.t.Index(), c.e, 0, &b)
	return strings.TrimRight(b.String(), "\n")
}

func (c *Compiled) explainNode(ix *dataset.Index, e Expr, depth int, b *strings.Builder) {
	indent := strings.Repeat("  ", depth)
	switch n := e.(type) {
	case *And:
		fmt.Fprintf(b, "%sAND (est %d rows, children cheapest-first)\n", indent, c.estimate(ix, e))
		for _, k := range c.orderByEstimate(ix, n.Kids) {
			c.explainNode(ix, k, depth+1, b)
		}
	case *Or:
		fmt.Fprintf(b, "%sOR (est %d rows)\n", indent, c.estimate(ix, e))
		for _, k := range n.Kids {
			c.explainNode(ix, k, depth+1, b)
		}
	case *Not:
		fmt.Fprintf(b, "%sNOT (est %d rows)\n", indent, c.estimate(ix, e))
		c.explainNode(ix, n.Kid, depth+1, b)
	default:
		fmt.Fprintf(b, "%s%s (est %d rows)\n", indent, e.String(), c.estimate(ix, e))
	}
}
