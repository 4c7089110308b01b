package suggest

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dbexplorer/internal/cadql"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/fault"
)

// Candidate is one ranked continuation for a partial CADQL statement.
type Candidate struct {
	// Text is the literal token to splice at the frontier (values are
	// quoted when they would not lex as a bare identifier).
	Text string `json:"text"`
	// Category is the cadql expectation category the candidate fills
	// (value, number, attribute, op, keyword, punct, table).
	Category string `json:"category"`
	// Attr is the attribute context, when the category has one.
	Attr string `json:"attr,omitempty"`
	// Count is how many rows survive if this candidate completes the
	// predicate, under the already-typed WHERE conjuncts. Negative for
	// structural candidates (keywords, operators) where counting does
	// not apply.
	Count int `json:"count"`
	// Selectivity is Count over the conjunct-prefix population.
	Selectivity float64 `json:"selectivity"`
	// Interest is the conditional-probability lift multiplier from the
	// dataset model (1 when the model is absent or silent).
	Interest float64 `json:"interest"`
	// Score orders candidates; higher is better.
	Score float64 `json:"score"`
	// DeadEnd flags value candidates that would produce zero rows.
	DeadEnd bool `json:"deadEnd,omitempty"`
}

// Completion is the answer to one completion request: where the parse
// frontier sits, what token categories fit there, and the ranked
// candidates.
type Completion struct {
	// Pos is the byte offset of the frontier in the input.
	Pos int `json:"pos"`
	// Got is the offending token when the frontier is mid-input.
	Got string `json:"got,omitempty"`
	// AtEnd reports whether the statement parsed up to end of input.
	AtEnd bool `json:"atEnd"`
	// Expected lists the raw expectation labels at the frontier.
	Expected []string `json:"expected"`
	// Candidates are ranked best-first, at most Options.Limit of them.
	Candidates []Candidate `json:"candidates"`
	// Degraded reports the model was unavailable (selectivity-only).
	Degraded bool `json:"degraded,omitempty"`
}

// structural scores keep keywords and punctuation visible but below any
// live-data candidate that matches rows.
const (
	scoreOp      = 0.5
	scoreKeyword = 0.3
	scorePunct   = 0.2
)

// Complete ranks continuations for a partial CADQL statement. A syntax
// error before the end of input (including lex errors) is a hard error
// and returns *cadql.ParseError — completion only applies at the typing
// frontier. Unknown attributes or values in the already-typed conjuncts
// surface as the dataview typed errors.
func (s *Suggester) Complete(ctx context.Context, input string, opts Options) (*Completion, error) {
	rec := cadql.Recover(input)
	if rec.Err != nil && !rec.AtEnd {
		return nil, rec.Err
	}
	p, err := s.conjunctPrefix(rec.Conjuncts)
	if err != nil {
		return nil, err
	}
	out := &Completion{
		Pos:      rec.Pos,
		Got:      rec.Got,
		AtEnd:    rec.AtEnd,
		Expected: rec.ExpectedLabels(),
		Degraded: s.Degraded(),
	}
	var cands []Candidate
	seenAttrRank := false
	for _, e := range rec.Expected {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		switch e.Category {
		case cadql.ExpectValue:
			vs, err := s.valueCandidates(ctx, p, e.Attr, e.Op)
			if err != nil {
				return nil, err
			}
			cands = append(cands, vs...)
		case cadql.ExpectNumber:
			vs, err := s.numberCandidates(ctx, p, e.Attr, e.Op)
			if err != nil {
				return nil, err
			}
			cands = append(cands, vs...)
		case cadql.ExpectAttribute:
			if seenAttrRank {
				continue
			}
			seenAttrRank = true
			ranked, err := s.rankAttrs(ctx, p)
			if err != nil {
				return nil, err
			}
			for _, a := range ranked {
				cands = append(cands, Candidate{
					Text:     a.Attr,
					Category: cadql.ExpectAttribute,
					Attr:     a.Attr,
					Count:    -1,
					Interest: 1,
					Score:    a.Score,
				})
			}
		case cadql.ExpectOp:
			cands = append(cands, s.operatorCandidates(e.Attr)...)
		case cadql.ExpectKeyword:
			cands = append(cands, Candidate{
				Text: e.Label, Category: e.Category, Count: -1, Interest: 1, Score: scoreKeyword,
			})
		case cadql.ExpectPunct:
			cands = append(cands, Candidate{
				Text: e.Label, Category: e.Category, Count: -1, Interest: 1, Score: scorePunct,
			})
		case cadql.ExpectTable:
			cands = append(cands, Candidate{
				Text: s.view.Table().Name(), Category: e.Category, Count: s.base.Len(),
				Selectivity: 1, Interest: 1, Score: 1,
			})
		}
	}
	sortCandidates(cands)
	if limit := opts.limit(); len(cands) > limit {
		cands = cands[:limit]
	}
	out.Candidates = cands
	return out, nil
}

// valueCandidates ranks the values of one categorical attribute under
// the prefix: Score = selectivity × interest, dead-ends last. A numeric
// attribute gets numeric literal candidates for the typed operator op
// instead (numberCandidates).
func (s *Suggester) valueCandidates(ctx context.Context, p *prefix, attr, op string) ([]Candidate, error) {
	if attr == "" {
		return nil, nil
	}
	col, err := s.view.Column(attr)
	if err != nil {
		return nil, err
	}
	if col.Kind == dataset.Numeric {
		return s.numberCandidates(ctx, p, attr, op)
	}
	if err := fault.Hit(ctx, fault.PointSuggestRank); err != nil {
		return nil, err
	}
	n := s.base.Len()
	in := dataview.Tally(p.bm, []*dataview.Column{col})[0]
	freq := in
	if p.total < n {
		freq = dataview.Tally(s.base, []*dataview.Column{col})[0]
	}
	cands := make([]Candidate, 0, len(in))
	for code, count := range in {
		label := col.Label(code)
		marginal := float64(freq[code]) / float64(n)
		c := Candidate{
			Text:     quoteValue(label),
			Category: cadql.ExpectValue,
			Attr:     attr,
			Count:    count,
			Interest: 1,
		}
		if p.total > 0 {
			c.Selectivity = float64(count) / float64(p.total)
		}
		if count == 0 {
			c.DeadEnd = true
		} else {
			c.Interest = s.interest(p, attr, label, count, marginal)
			c.Score = c.Selectivity * c.Interest
		}
		cands = append(cands, c)
	}
	return cands, nil
}

// numberCandidates proposes numeric literals for one attribute at an
// operator frontier, drawn from the column's equi-depth histogram
// edges. Thresholds are scored by split balance — 4·s·(1−s) peaks when
// the literal divides the prefix population in half, which is the most
// informative refinement — while equality candidates score by
// selectivity like categorical values.
func (s *Suggester) numberCandidates(ctx context.Context, p *prefix, attr, op string) ([]Candidate, error) {
	if attr == "" {
		return nil, nil
	}
	col, err := s.view.Column(attr)
	if err != nil {
		return nil, err
	}
	if col.Kind != dataset.Numeric {
		return s.valueCandidates(ctx, p, attr, op)
	}
	if err := fault.Hit(ctx, fault.PointSuggestRank); err != nil {
		return nil, err
	}
	hist := col.Histogram()
	if hist == nil || len(hist.Edges) == 0 {
		return nil, nil
	}
	ix := s.view.Table().Index()
	// Once the live index has grown past the view, even an unfiltered
	// probe counts through a filter: the view's whole snapshot.
	inStep := ix.Rows() == s.base.Universe()
	filtered := p.total < s.base.Len() || !inStep
	includeEq, below, above := thresholdWindow(op)
	// Threshold operators probe cumulative windows at every edge, so one
	// batched sweep replaces one materialized range bitmap (plus
	// intersection) per edge. Equality windows are near-empty slivers —
	// the per-edge intersection is already cheaper than any batch.
	batched := filtered && (below || above)
	var lt, le []int
	var valid int
	if batched {
		lt, le, valid = ix.NumEdgeCounts(col.Col, hist.Edges, p.bm.Resize(ix.Rows()))
	}
	seen := make(map[float64]bool, len(hist.Edges))
	cands := make([]Candidate, 0, len(hist.Edges))
	for i, edge := range hist.Edges {
		if seen[edge] {
			continue
		}
		seen[edge] = true
		var count int
		switch {
		case batched && below && includeEq: // <=
			count = le[i]
		case batched && below: // <
			count = lt[i]
		case batched && includeEq: // >=, BETWEEN lo
			count = valid - lt[i]
		case batched: // >
			count = valid - le[i]
		case filtered:
			count = p.bm.AndLen(s.numCmp(col.Col, edge, includeEq, below, above))
		default:
			count = ix.NumCmpRangeLen(col.Col, edge, includeEq, below, above)
		}
		c := Candidate{
			Text:     strconv.FormatFloat(edge, 'f', -1, 64),
			Category: cadql.ExpectNumber,
			Attr:     attr,
			Count:    count,
			Interest: 1,
		}
		if p.total > 0 {
			c.Selectivity = float64(count) / float64(p.total)
		}
		if count == 0 {
			c.DeadEnd = true
		} else if op == "=" || op == "IN" {
			c.Score = c.Selectivity
		} else {
			c.Score = 4 * c.Selectivity * (1 - c.Selectivity)
		}
		cands = append(cands, c)
	}
	return cands, nil
}

// thresholdWindow maps an operator frontier to the NumCmpRange window
// the candidate literal would select.
func thresholdWindow(op string) (includeEq, below, above bool) {
	switch op {
	case "<":
		return false, true, false
	case "<=":
		return true, true, false
	case ">":
		return false, false, true
	case ">=", "BETWEEN": // BETWEEN lo keeps everything at or above lo
		return true, false, true
	default: // =, !=, IN — count exact matches
		return true, false, false
	}
}

// operatorCandidates expands the comparison operators valid for the
// attribute's kind (all of them when the attribute is unknown).
func (s *Suggester) operatorCandidates(attr string) []Candidate {
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	if attr != "" {
		if col, err := s.view.Column(attr); err == nil && col.Kind == dataset.Categorical {
			ops = ops[:2]
		}
	}
	cands := make([]Candidate, 0, len(ops))
	for _, op := range ops {
		cands = append(cands, Candidate{
			Text: op, Category: cadql.ExpectOp, Attr: attr, Count: -1, Interest: 1, Score: scoreOp,
		})
	}
	return cands
}

// sortCandidates orders best-first: score desc, then live before dead,
// then count desc, then text for determinism.
func sortCandidates(cands []Candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.DeadEnd != b.DeadEnd {
			return !a.DeadEnd
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.Text < b.Text
	})
}

// quoteValue renders a categorical value as a CADQL literal: bare when
// it lexes as a single identifier, single-quoted otherwise.
func quoteValue(v string) string {
	if v == "" {
		return "''"
	}
	bare := true
	for i, r := range v {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '-':
		case r >= '0' && r <= '9':
			if i == 0 {
				bare = false
			}
		default:
			bare = false
		}
		if !bare {
			break
		}
	}
	if bare {
		return v
	}
	return "'" + strings.ReplaceAll(v, "'", "''") + "'"
}

// String renders a candidate for logs and debugging.
func (c Candidate) String() string {
	return fmt.Sprintf("%s %q score=%.3f n=%d", c.Category, c.Text, c.Score, c.Count)
}
