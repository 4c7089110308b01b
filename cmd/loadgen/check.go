package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
)

// Response bodies, decoded only as far as the checks need.
type digestJSON struct {
	Attrs []struct {
		Attr   string
		Values []struct {
			Value string
			Count int
		}
	}
}

type queryResp struct {
	Count  int              `json:"count"`
	Total  int              `json:"total"`
	Offset int              `json:"offset"`
	Limit  int              `json:"limit"`
	Rows   []map[string]any `json:"rows"`
	Digest digestJSON       `json:"digest"`
}

type cadView struct {
	Pivot        string   `json:"pivot"`
	CompareAttrs []string `json:"compareAttrs"`
	K            int      `json:"k"`
	Tau          float64  `json:"tau"`
	Rows         []struct {
		Value  string `json:"value"`
		Count  int    `json:"count"`
		IUnits []struct {
			PivotValue string `json:"pivotValue"`
			Rank       int    `json:"rank"`
			Size       int    `json:"size"`
			Rows       []int  `json:"rows"`
		} `json:"iunits"`
	} `json:"rows"`
}

type cadResp struct {
	ID    string  `json:"id"`
	View  cadView `json:"view"`
	Stale int     `json:"stale"`
}

type iunitRef struct {
	PivotValue string
	Rank       int
}

type highlightResp struct {
	Highlight struct {
		Ref     iunitRef
		Tau     float64
		Matches []struct {
			Ref        iunitRef
			Similarity float64
		}
	} `json:"highlight"`
}

type reorderResp struct {
	View         cadView `json:"view"`
	Similarities []struct {
		PivotValue string
		Distance   float64
	} `json:"similarities"`
}

type completeResp struct {
	Completion struct {
		Candidates []struct {
			Text     string `json:"text"`
			Category string `json:"category"`
			Attr     string `json:"attr"`
			Count    int    `json:"count"`
		} `json:"candidates"`
	} `json:"completion"`
}

type drillResp struct {
	Drilldown struct {
		Total int `json:"total"`
		Attrs []struct {
			Attr   string `json:"attr"`
			Values []struct {
				Value string `json:"value"`
				Count int    `json:"count"`
			} `json:"values"`
		} `json:"attrs"`
	} `json:"drilldown"`
}

type ingestResp struct {
	Appended int `json:"appended"`
	Rows     int `json:"rows"`
}

// checkQuery checks a /query answer against the oracle: the total is
// the oracle's count under some snapshot, the page holds the right rows
// of that result, and every categorical attribute's digest counts equal
// the oracle's (so a filtered attribute's counts sum to the total).
func (p *plan) checkQuery(q queryReq, r *queryResp) error {
	if r.Count != r.Total {
		return fmt.Errorf("count %d != total %d", r.Count, r.Total)
	}
	t, err := p.o.snapTally(q.Filters, r.Total)
	if err != nil {
		return fmt.Errorf("%s: %w", filterKey(q.Filters), err)
	}
	limit := q.Limit
	if limit == 0 {
		limit = defaultPageLimit
	}
	if want := max(0, min(limit, t.total-q.Offset)); len(r.Rows) != want {
		return fmt.Errorf("page holds %d rows, want %d", len(r.Rows), want)
	}
	ps, _ := p.o.compile(q.Filters)
	for _, row := range r.Rows {
		id, ok := row["_row"].(float64)
		if !ok || int(id) < 0 || int(id) >= t.n || !p.o.match(ps, int(id)) {
			return fmt.Errorf("page row %v is not in the result", row["_row"])
		}
		for _, attr := range p.o.attrs {
			if got, want := row[attr], p.o.value(attr, int(id)); got != want {
				return fmt.Errorf("row %d: %s = %v, want %q", int(id), attr, got, want)
			}
		}
	}
	return checkDigest(p.o, t, &r.Digest)
}

func checkDigest(o *oracle, t *tally, d *digestJSON) error {
	for _, a := range d.Attrs {
		if !o.categorical(a.Attr) {
			continue
		}
		nonzero := 0
		for _, cs := range t.counts[o.pos[a.Attr]] {
			if cs > 0 {
				nonzero++
			}
		}
		if len(a.Values) != nonzero {
			return fmt.Errorf("digest of %s lists %d values, oracle %d", a.Attr, len(a.Values), nonzero)
		}
		for _, vc := range a.Values {
			if want := t.count(o, a.Attr, vc.Value); vc.Count != want {
				return fmt.Errorf("digest %s=%s counts %d, oracle %d", a.Attr, vc.Value, vc.Count, want)
			}
		}
	}
	return nil
}

// checkCAD checks the CAD View invariants: the pivot rows are the
// requested values in order with the oracle's counts under one
// snapshot, at most maxCompare Compare Attributes, at most K IUnits per
// row, and every IUnit row inside the filter result with that row's
// pivot value.
func (p *plan) checkCAD(req cadReq, r *cadResp) error {
	v := &r.View
	if v.Pivot != req.Pivot {
		return fmt.Errorf("pivot %q, want %q", v.Pivot, req.Pivot)
	}
	if n := len(v.CompareAttrs); n == 0 || n > req.MaxCompare {
		return fmt.Errorf("%d compare attributes, want 1..%d", n, req.MaxCompare)
	}
	if len(v.Rows) != len(req.PivotValues) {
		return fmt.Errorf("%d pivot rows, want %d", len(v.Rows), len(req.PivotValues))
	}
	// The pivot rows cover the result rows that carry a requested pivot
	// value; that count identifies the snapshot the view was built on.
	fs := append(append([]filter(nil), req.Filters...), filter{Attr: req.Pivot, Values: req.PivotValues})
	covered := 0
	for _, row := range v.Rows {
		covered += row.Count
	}
	t, err := p.o.snapTally(fs, covered)
	if err != nil {
		return fmt.Errorf("%s: pivot rows: %w", filterKey(req.Filters), err)
	}
	ps, _ := p.o.compile(fs)
	pivot := p.o.pos[req.Pivot]
	for i, row := range v.Rows {
		if row.Value != req.PivotValues[i] {
			return fmt.Errorf("pivot row %d is %q, want %q", i, row.Value, req.PivotValues[i])
		}
		if want := t.count(p.o, req.Pivot, row.Value); row.Count != want {
			return fmt.Errorf("pivot row %q counts %d, oracle %d", row.Value, row.Count, want)
		}
		if len(row.IUnits) > req.K {
			return fmt.Errorf("pivot row %q has %d IUnits, K = %d", row.Value, len(row.IUnits), req.K)
		}
		for j, iu := range row.IUnits {
			if iu.PivotValue != row.Value || iu.Rank != j+1 || iu.Size != len(iu.Rows) {
				return fmt.Errorf("IUnit (%s, %d) is malformed", row.Value, j+1)
			}
			for _, id := range iu.Rows {
				if id < 0 || id >= t.n || !p.o.match(ps, id) || p.o.dict[pivot][p.o.cells[pivot][id]] != row.Value {
					return fmt.Errorf("IUnit (%s, %d) holds row %d outside the result", row.Value, j+1, id)
				}
			}
		}
	}
	return nil
}

func checkHighlight(v *cadResp, req highlightReq, r *highlightResp) error {
	h := &r.Highlight
	if h.Ref != (iunitRef{req.PivotValue, req.Rank}) {
		return fmt.Errorf("reference %v, want (%s, %d)", h.Ref, req.PivotValue, req.Rank)
	}
	for _, m := range h.Matches {
		if m.Similarity <= h.Tau || m.Similarity > float64(len(v.View.CompareAttrs)) {
			return fmt.Errorf("match %v similarity %g outside (%g, %d]", m.Ref, m.Similarity, h.Tau, len(v.View.CompareAttrs))
		}
		if !hasIUnit(&v.View, m.Ref) {
			return fmt.Errorf("match %v is not in the view", m.Ref)
		}
	}
	return nil
}

func hasIUnit(v *cadView, ref iunitRef) bool {
	for _, row := range v.Rows {
		if row.Value == ref.PivotValue {
			return ref.Rank >= 1 && ref.Rank <= len(row.IUnits)
		}
	}
	return false
}

// checkReorder checks REORDER ROWS: the reference row leads at distance
// 0, distances never decrease, and the rows are the view's rows.
func checkReorder(v *cadResp, req reorderReq, r *reorderResp) error {
	rows := r.View.Rows
	if len(rows) != len(v.View.Rows) || len(r.Similarities) != len(rows) {
		return fmt.Errorf("%d rows and %d similarities for a %d-row view", len(rows), len(r.Similarities), len(v.View.Rows))
	}
	if rows[0].Value != req.PivotValue || r.Similarities[0].Distance != 0 {
		return fmt.Errorf("reordered view starts at %q (distance %g), want %q", rows[0].Value, r.Similarities[0].Distance, req.PivotValue)
	}
	seen := map[string]bool{}
	for i, row := range rows {
		if row.Value != r.Similarities[i].PivotValue || (i > 0 && r.Similarities[i].Distance < r.Similarities[i-1].Distance) {
			return fmt.Errorf("row %d (%s) is out of order", i, row.Value)
		}
		seen[row.Value] = true
	}
	for _, row := range v.View.Rows {
		if !seen[row.Value] {
			return fmt.Errorf("row %q went missing", row.Value)
		}
	}
	return nil
}

// checkComplete checks that completion returned candidates and that
// every categorical value candidate counts the rows the oracle finds
// under the statement's equality prefix.
func (p *plan) checkComplete(prefix []filter, r *completeResp) error {
	cands := r.Completion.Candidates
	if len(cands) == 0 {
		return fmt.Errorf("no candidates")
	}
	for _, c := range cands {
		if c.Category != "value" || !p.o.categorical(c.Attr) {
			continue
		}
		t, err := p.o.tally(prefix, p.o.rows)
		if err != nil {
			return err
		}
		if want := t.count(p.o, c.Attr, unquote(c.Text)); c.Count != want {
			return fmt.Errorf("candidate %s=%s counts %d, oracle %d", c.Attr, c.Text, c.Count, want)
		}
	}
	return nil
}

func unquote(s string) string {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'")
	}
	return s
}

// checkDrill checks a drill-down: its total is the oracle's count under
// some snapshot, no suggested attribute is already filtered, and every
// categorical value suggestion counts what the oracle counts under that
// snapshot. Unfiltered drill-downs count values from the live table
// index, which can be ahead of the serving view right after an ingest,
// so their counts may match a later snapshot instead.
func (p *plan) checkDrill(fs []filter, r *drillResp) error {
	d := &r.Drilldown
	t, err := p.o.snapTally(fs, d.Total)
	if err != nil {
		return fmt.Errorf("%s: %w", filterKey(fs), err)
	}
	filtered := map[string]bool{}
	for _, f := range fs {
		filtered[f.Attr] = true
	}
	for _, a := range d.Attrs {
		if filtered[a.Attr] {
			return fmt.Errorf("suggests already-filtered %s", a.Attr)
		}
	}
	err = p.drillCounts(t, r)
	for _, n := range p.o.snaps {
		if err == nil || len(fs) > 0 {
			break
		}
		if n > t.n {
			later, terr := p.o.tally(nil, n)
			if terr != nil {
				return terr
			}
			err = p.drillCounts(later, r)
		}
	}
	return err
}

func (p *plan) drillCounts(t *tally, r *drillResp) error {
	for _, a := range r.Drilldown.Attrs {
		if !p.o.categorical(a.Attr) {
			continue
		}
		for _, v := range a.Values {
			if want := t.count(p.o, a.Attr, v.Value); v.Count != want {
				return fmt.Errorf("suggestion %s=%s counts %d, oracle %d at %d rows", a.Attr, v.Value, v.Count, want, t.n)
			}
		}
	}
	return nil
}

// hash folds the canonical form of one of the client's first hashOps
// responses into its output digest.
func (c *client) hash(raw []byte) error {
	if len(c.rec.hashes) >= hashOps || c.stop.IsZero() {
		return nil
	}
	canon, err := canonical(raw)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(canon)
	c.rec.hashes = append(c.rec.hashes, sum[:])
	return nil
}

// canonical re-encodes a response body with sorted keys, without the
// per-request id, view name, timings, build time and cache/staleness
// flags, so two equal answers give equal bytes.
func canonical(raw []byte) ([]byte, error) {
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		return nil, fmt.Errorf("canonicalizing response: %w", err)
	}
	for _, k := range []string{"id", "cached", "buildMs", "timings", "stale", "shed"} {
		delete(body, k)
	}
	if v, ok := body["view"].(map[string]any); ok {
		delete(v, "name")
	}
	canon, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("canonicalizing response: %w", err)
	}
	return canon, nil
}
