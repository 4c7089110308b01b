package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"dbexplorer/internal/core"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/facet"
	"dbexplorer/internal/httpapi"
	srvmetrics "dbexplorer/internal/metrics"
	"dbexplorer/internal/suggest"
	"dbexplorer/internal/viewcache"
)

// spanSet holds the layer times of one operation's direct replay. Times
// on the request path add up against the handler time; off-path times
// (the background refresh after an ingest) are reported on their own.
type spanSet struct {
	req   map[string]time.Duration
	off   map[string]time.Duration
	wall  time.Duration // core.BuildContext wall time, 0 without a build
	timed time.Duration // core.Timings.Total of that build
	body  []byte        // the replay's response body
}

func newSpanSet() *spanSet {
	return &spanSet{req: map[string]time.Duration{}, off: map[string]time.Duration{}}
}

// time runs f as one span of layer. A nil set runs f untimed.
func (s *spanSet) time(layer string, f func()) {
	if s == nil {
		f()
		return
	}
	start := time.Now()
	f()
	s.req[layer] += time.Since(start)
}

func (s *spanSet) offPath(layer string, f func()) {
	start := time.Now()
	f()
	s.off[layer] += time.Since(start)
}

// build splits one core.BuildContext call over its stages. Stage times
// from core.Timings add up to more than the wall time when pivot rows
// build in parallel, so each is scaled to its share of the wall time;
// cluster encoding is the part of the cluster stage its Lloyd phases do
// not cover.
func (s *spanSet) build(tm core.Timings, wall time.Duration) {
	if s == nil {
		return
	}
	s.wall, s.timed = wall, tm.Total()
	if s.timed <= 0 {
		s.req["core.other"] += wall
		return
	}
	scale := float64(wall) / float64(s.timed)
	detail := tm.ClusterDetail
	for layer, d := range map[string]time.Duration{
		"core.index":             tm.Index,
		"featsel.compare_select": tm.CompareSelect,
		"cluster.encode":         tm.Cluster - detail.Seed - detail.Assign - detail.Update - detail.Reseed,
		"cluster.seed":           detail.Seed,
		"cluster.assign":         detail.Assign,
		"cluster.update":         detail.Update,
		"cluster.reseed":         detail.Reseed,
		"core.other":             tm.Other,
	} {
		s.req[layer] += time.Duration(float64(d) * scale)
	}
}

func (s *spanSet) encode(v any) error {
	var err error
	s.time("httpapi.encode", func() { s.body, err = json.Marshal(v) })
	return err
}

// tracedOp is one replayed operation: its time over HTTP, the server
// handler's time for the same request, and the direct replay's spans.
type tracedOp struct {
	route   string
	http    time.Duration
	handler time.Duration
	bytes   int
	spans   *spanSet
}

// tracer drives the traced replay. The server's handler is wrapped so
// each request's handler time is known; the replay is sequential, so
// one slot suffices.
type tracer struct {
	twin      *twin
	srv       *server
	handler   atomic.Int64
	recording bool
	// clock is the replay's live timeline: the summed HTTP time of the
	// reader's requests. Writer batches come due on it, not on the wall
	// clock, which also counts the direct replays a live run never waits
	// for; on wall time the writer would crowd the reader out.
	clock     time.Duration
	nextBatch int
	ops       []*tracedOp
	cur       *tracedOp

	indexBefore  [2]int64
	indexBuilds  int64 // posting-set and sorted-order builds during server requests
	indexExtends int64
}

func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.handler.Store(int64(time.Since(start)))
	})
}

func indexCounts() [2]int64 {
	cat, ord := dataset.IndexStats()
	catX, ordX := dataset.IndexExtendStats()
	return [2]int64{cat + ord, catX + ordX}
}

func (t *tracer) beforeHTTP() {
	t.handler.Store(0)
	t.indexBefore = indexCounts()
}

func (t *tracer) afterHTTP(route string, d time.Duration, bytes int) {
	after := indexCounts()
	t.cur = &tracedOp{route: route, http: d, handler: time.Duration(t.handler.Load()), bytes: bytes}
	if t.recording {
		if route != "ingest" {
			t.clock += d
		}
		t.indexBuilds += after[0] - t.indexBefore[0]
		t.indexExtends += after[1] - t.indexBefore[1]
	}
}

// direct replays the operation just sent over HTTP on the twin and
// requires the same answer as the server's body raw (nil when the
// server failed, which is reported on its own).
func (t *tracer) direct(route string, raw []byte, f func(*spanSet) error) error {
	op := t.cur
	op.spans = newSpanSet()
	err := f(op.spans)
	if t.recording {
		t.ops = append(t.ops, op)
	}
	if err != nil {
		return fmt.Errorf("%s: direct replay: %w", route, err)
	}
	if raw == nil {
		return nil
	}
	if err := sameAnswer(raw, op.spans.body); err != nil {
		return fmt.Errorf("%s: direct replay disagrees with the server: %w", route, err)
	}
	return nil
}

// sameAnswer compares two response bodies in canonical form.
func sameAnswer(server, replay []byte) error {
	a, err := canonical(server)
	if err != nil {
		return err
	}
	b, err := canonical(replay)
	if err != nil {
		return err
	}
	if bytes.Equal(a, b) {
		return nil
	}
	i := 0
	for i < min(len(a), len(b)) && a[i] == b[i] {
		i++
	}
	from := max(0, i-40)
	return fmt.Errorf("at byte %d: server %.80q, replay %.80q", i, a[from:], b[from:])
}

// settleView and settleRebuild wait until the server has finished the
// background work an operation started, which the twin does inline: the
// view refresh after an ingest (until an unfiltered /query counts rows),
// and the rebuild of a CAD View served stale (until one more build is
// recorded). The next operation then meets the server in the state the
// twin is in, and its handler time does not overlap that work.
func (t *tracer) settleView(rows int) error {
	return awaitRows(t.srv, rows, 30*time.Second)
}

func (t *tracer) builds() int64 {
	h, _ := t.srv.api.Metrics().Snapshot()["build_total_seconds"].(srvmetrics.HistogramSnapshot)
	return h.Count
}

func (t *tracer) settleRebuild(before int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for t.builds() == before {
		if time.Now().After(deadline) {
			return fmt.Errorf("the stale CAD View was not rebuilt within 30 s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// ingestDue sends the writer batches that have come due on the replay's
// clock, between the reader's operations.
func (t *tracer) ingestDue(c *client) error {
	if !t.recording || !c.p.w.writer {
		return nil
	}
	for t.nextBatch < len(c.p.batches) {
		if time.Duration(t.nextBatch*batchInterval)*time.Millisecond > t.clock {
			return nil
		}
		t.nextBatch++
		if err := c.ingest(t.nextBatch-1, time.Time{}); err != nil {
			return err
		}
	}
	return nil
}

// serverSeed is the clustering seed the server builds with (cmd/serve's
// default), which the twin's builds must share.
const serverSeed = 1

// twin is a second copy of the fixture, built from the same seed, on
// which the traced replay calls each layer's public functions in the
// order the handlers call them. It keeps its own cache, suggester and
// digest, so it sees the same hits, misses and rebuilds as the server.
type twin struct {
	table *dataset.Table
	name  string
	view  *dataview.View
	base  dataset.RowSet
	cache *viewcache.Cache[*twinBuild]

	lastID string // the server's id for last
	last   *core.CADView
	built  *core.CADView // the latest /cad view, until bindID names it

	sug     *suggest.Suggester
	sugView *dataview.View

	dig     *facet.Digest
	digView *dataview.View
	digRows int
}

type twinBuild struct {
	view  *core.CADView
	tm    core.Timings
	text  string
	epoch uint64
}

// newTwin sets the twin up the way the server is set up and returns the
// time each set-up layer took: the view, the posting sets of every
// queriable column, and the suggestion model.
func newTwin(table *dataset.Table) (*twin, map[string]time.Duration, error) {
	ctx := context.Background()
	setup := map[string]time.Duration{}
	start := time.Now()
	v, err := dataview.New(table, dataview.Options{})
	if err != nil {
		return nil, nil, err
	}
	setup["setup.view"] = time.Since(start)
	start = time.Now()
	if err := suggest.New(v, nil).Warm(ctx); err != nil {
		return nil, nil, err
	}
	setup["setup.postings"] = time.Since(start)
	start = time.Now()
	m, err := suggest.BuildModel(ctx, v)
	if err != nil {
		return nil, nil, err
	}
	setup["suggest.model"] = time.Since(start)
	t := &twin{
		table:   table,
		name:    table.Name(),
		view:    v,
		base:    dataset.AllRows(v.Rows()),
		cache:   viewcache.New[*twinBuild](httpapi.DefaultCacheSize),
		sug:     suggest.New(v, m),
		sugView: v,
	}
	return t, setup, nil
}

func session(v *dataview.View, base dataset.RowSet, fs []filter) (*facet.Session, error) {
	sess := facet.NewSession(v, base)
	for _, f := range fs {
		for _, val := range f.Values {
			if err := sess.Select(f.Attr, val); err != nil {
				return nil, err
			}
		}
	}
	return sess, nil
}

// observe mirrors the server's per-request index gauges, whose posting
// memory sum walks every materialized container.
func observe(t *dataset.Table) {
	dataset.IndexStats()
	dataset.IndexExtendStats()
	dataview.PostingStats()
	t.Index().MemoryBytes()
}

func (t *twin) query(sp *spanSet, q queryReq) error {
	v, base := t.view, t.base
	var sess *facet.Session
	var err error
	sp.time("facet.session", func() { sess, err = session(v, base, q.Filters) })
	if err != nil {
		return err
	}
	limit := q.Limit
	if limit == 0 {
		limit = defaultPageLimit
	}
	var page dataset.RowSet
	var total int
	sp.time("facet.page", func() { page, total = sess.Page(q.Offset, limit) })
	sp.time("dataset.memory_bytes", func() { observe(t.table) })
	var rows []map[string]any
	sp.time("httpapi.rows", func() { rows = renderRows(v.Table(), page) })
	var dig, panel *facet.Digest
	sp.time("facet.digest", func() { dig = sess.Digest() })
	sp.time("facet.panel", func() { panel = sess.PanelDigest() })
	return sp.encode(map[string]any{
		"count": total, "total": total, "offset": q.Offset, "limit": limit,
		"rows": rows, "digest": dig, "panel": panel,
		"phase": (&facet.TPFacet{Session: sess}).SuggestPhase(0).String(),
	})
}

// renderRows renders a page the way the query handler does: one object
// per row, NaN as null.
func renderRows(t *dataset.Table, rows dataset.RowSet) []map[string]any {
	schema := t.Schema()
	out := make([]map[string]any, 0, len(rows))
	for _, row := range rows {
		obj := make(map[string]any, len(schema)+1)
		obj["_row"] = row
		for col, attr := range schema {
			if cat := t.Cat(col); cat != nil {
				obj[attr.Name] = cat.Value(row)
			} else if v := t.Num(col).Value(row); math.IsNaN(v) {
				obj[attr.Name] = nil
			} else {
				obj[attr.Name] = v
			}
		}
		out = append(out, obj)
	}
	return out
}

func canonicalFilters(fs []filter) []filter {
	out := make([]filter, len(fs))
	for i, f := range fs {
		vals := append([]string(nil), f.Values...)
		sort.Strings(vals)
		out[i] = filter{Attr: f.Attr, Values: vals}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Attr < out[j].Attr })
	return out
}

func (t *twin) cad(sp *spanSet, req cadReq) error {
	var key viewcache.Key
	var tb *twinBuild
	var hit bool
	var err error
	sp.time("viewcache.lookup", func() {
		var fp string
		fp, err = viewcache.Fingerprint(canonicalFilters(req.Filters), req.Pivot, req.PivotValues,
			[]string(nil), req.K, req.MaxCompare, false, int64(serverSeed))
		key = viewcache.NewKey(t.name, fp)
		tb, hit = t.cache.Get(key)
	})
	if err != nil {
		return err
	}
	stale := hit && tb.epoch != t.table.Epoch()
	if !hit {
		if tb, err = t.build(sp, req); err != nil {
			return err
		}
		sp.time("viewcache.lookup", func() { t.cache.Put(key, tb) })
	}
	out := *tb.view
	out.Name = "cad-twin"
	resp := map[string]any{
		"id": out.Name, "view": &out, "text": tb.text, "cached": hit,
		"buildMs": float64(tb.tm.Total().Microseconds()) / 1e3,
		"timings": timings(tb.tm),
	}
	if stale {
		resp["stale"] = t.table.NumRows() - t.view.Rows()
	}
	t.built = tb.view
	if err := sp.encode(resp); err != nil {
		return err
	}
	if stale {
		// The server answers from the stale entry and rebuilds it in the
		// background; so does the twin, outside the request's spans.
		nb, err := t.build(nil, req)
		if err != nil {
			return err
		}
		t.cache.Put(key, nb)
	}
	return nil
}

func timings(tm core.Timings) map[string]float64 {
	out := map[string]float64{}
	for _, st := range tm.Stages() {
		out[st.Name+"Ms"] = float64(st.D.Microseconds()) / 1e3
	}
	for _, st := range tm.ClusterDetail.Stages() {
		out["cluster_"+st.Name+"Ms"] = float64(st.D.Microseconds()) / 1e3
	}
	return out
}

// build runs one cold CAD View build with the server's exact Config.
func (t *twin) build(sp *spanSet, req cadReq) (*twinBuild, error) {
	v, base := t.view, t.base
	var rows dataset.RowSet
	var err error
	sp.time("facet.session", func() {
		var sess *facet.Session
		if sess, err = session(v, base, req.Filters); err == nil {
			rows = sess.Rows()
		}
	})
	if err != nil {
		return nil, err
	}
	sp.time("dataset.memory_bytes", func() { observe(t.table) })
	start := time.Now()
	view, tm, err := core.BuildContext(context.Background(), v, rows, core.Config{
		Pivot:       req.Pivot,
		PivotValues: req.PivotValues,
		K:           req.K,
		MaxCompare:  req.MaxCompare,
		Seed:        serverSeed,
		Parallel:    true,
	})
	if err != nil {
		return nil, err
	}
	sp.build(tm, time.Since(start))
	var text string
	sp.time("core.render", func() { text = core.Render(view, nil) })
	return &twinBuild{view: view, tm: tm, text: text, epoch: v.Epoch()}, nil
}

// bindID records the server's id for the view the last /cad returned,
// so highlight and reorder find the twin's copy.
func (t *twin) bindID(id string) { t.lastID, t.last = id, t.built }

func (t *twin) stored(id string) (*core.CADView, error) {
	if id != t.lastID || t.last == nil {
		return nil, fmt.Errorf("twin has no view %q", id)
	}
	return t.last, nil
}

func (t *twin) highlight(sp *spanSet, req highlightReq) error {
	v, err := t.stored(req.ID)
	if err != nil {
		return err
	}
	var h *core.Highlight
	sp.time("core.highlight", func() { h, err = core.HighlightSimilar(v, req.PivotValue, req.Rank, v.Tau) })
	if err != nil {
		return err
	}
	var text string
	sp.time("core.render", func() { text = core.Render(v, h) })
	return sp.encode(map[string]any{"highlight": h, "text": text})
}

func (t *twin) reorder(sp *spanSet, req reorderReq) error {
	v, err := t.stored(req.ID)
	if err != nil {
		return err
	}
	var out *core.CADView
	var sims []core.RowSimilarity
	sp.time("core.reorder", func() { out, sims, err = core.ReorderRows(v, req.PivotValue) })
	if err != nil {
		return err
	}
	out.Name = req.ID
	t.last = out
	var text string
	sp.time("core.render", func() { text = core.Render(out, nil) })
	return sp.encode(map[string]any{"view": out, "similarities": sims, "text": text})
}

// suggester returns the twin's suggester, re-mining the model on the
// request path when the view changed since, as the server does.
func (t *twin) suggester(sp *spanSet) (*suggest.Suggester, error) {
	if t.sugView == t.view {
		return t.sug, nil
	}
	var m *suggest.Model
	var err error
	sp.time("suggest.model", func() { m, err = suggest.BuildModel(context.Background(), t.view) })
	if err != nil {
		return nil, err
	}
	t.sug, t.sugView = suggest.New(t.view, m), t.view
	return t.sug, nil
}

func (t *twin) drill(sp *spanSet, fs []filter) error {
	sug, err := t.suggester(sp)
	if err != nil {
		return err
	}
	sels := make([]suggest.Selection, len(fs))
	for i, f := range fs {
		sels[i] = suggest.Selection{Attr: f.Attr, Values: f.Values}
	}
	var d *suggest.DrillDown
	sp.time("suggest.drill", func() { d, err = sug.Drill(context.Background(), sels, suggest.Options{}) })
	if err != nil {
		return err
	}
	return sp.encode(map[string]any{"dataset": t.name, "mode": "drilldown", "drilldown": d, "degraded": d.Degraded})
}

func (t *twin) complete(sp *spanSet, stmt string) error {
	sug, err := t.suggester(sp)
	if err != nil {
		return err
	}
	var c *suggest.Completion
	sp.time("suggest.complete", func() { c, err = sug.Complete(context.Background(), stmt, suggest.Options{}) })
	if err != nil {
		return err
	}
	return sp.encode(map[string]any{"dataset": t.name, "mode": "complete", "completion": c, "degraded": c.Degraded})
}

// ingest appends one batch the way the ingest handler does, then does
// the server's background work -- extending the index and rebuilding
// the view -- as off-path spans.
func (t *twin) ingest(sp *spanSet, rows [][]any) error {
	v := t.view
	var err error
	sp.time("dataset.append", func() { err = t.table.AppendBatch(rows) })
	if err != nil {
		return err
	}
	n := t.table.NumRows()
	var dig *facet.Digest
	sp.time("facet.extend_digest", func() {
		if t.digView != v {
			t.dig = facet.NewSession(v, dataset.AllRows(v.Rows())).Digest()
			t.digView, t.digRows = v, v.Rows()
		}
		t.dig = facet.ExtendDigest(v, t.dig, t.digRows, n)
		t.digRows = n
		dig = t.dig
	})
	if err := sp.encode(map[string]any{
		"dataset": t.name, "appended": len(rows), "rows": n,
		"epoch": t.table.Epoch(), "stale": n - v.Rows(), "digest": dig,
	}); err != nil {
		return err
	}
	sp.offPath("dataset.index_extend", func() { t.table.Index() })
	var nv *dataview.View
	sp.offPath("dataview.refresh", func() { nv, err = dataview.New(t.table, v.Opts()) })
	if err != nil {
		return err
	}
	t.view, t.base = nv, dataset.AllRows(nv.Rows())
	t.dig, t.digView, t.digRows = nil, nil, 0
	return nil
}

// requestLayers are the direct-replay layers on the request path, in
// report order. Their times add up against the handler time.
var requestLayers = []string{
	"viewcache.lookup",
	"facet.session", "facet.page", "facet.digest", "facet.panel", "facet.extend_digest",
	"dataset.memory_bytes", "dataset.append",
	"core.index", "featsel.compare_select",
	"cluster.encode", "cluster.seed", "cluster.assign", "cluster.update", "cluster.reseed",
	"core.other", "core.render", "core.highlight", "core.reorder",
	"suggest.model", "suggest.drill", "suggest.complete",
	"httpapi.rows", "httpapi.encode",
}

// layerMetrics turns the replay's spans into metrics: per route, each
// layer's median time (0 where an operation skipped it), the handler
// and transport medians, response size and the unattributed share;
// across all operations, each layer's share of the summed handler time.
func (t *tracer) layerMetrics(m *metrics) {
	byRoute := map[string][]*tracedOp{}
	var routes []string
	var handlerSum time.Duration
	layerSum := map[string]time.Duration{}
	var handler, transport, encode, kb, session []float64
	for _, op := range t.ops {
		if byRoute[op.route] == nil {
			routes = append(routes, op.route)
		}
		byRoute[op.route] = append(byRoute[op.route], op)
		handlerSum += op.handler
		for l, d := range op.spans.req {
			layerSum[l] += d
		}
		handler = append(handler, ms(op.handler))
		transport = append(transport, ms(op.http-op.handler))
		encode = append(encode, ms(op.spans.req["httpapi.encode"]))
		kb = append(kb, float64(op.bytes)/1024)
		if d, ok := op.spans.req["facet.session"]; ok {
			session = append(session, ms(d))
		}
	}
	m.dist("httpapi.handler_ms", "ms", handler)
	m.dist("net.transport_ms", "ms", transport)
	m.dist("httpapi.encode_ms", "ms", encode)
	m.dist("httpapi.resp_kb", "KB", kb)
	m.dist("facet.session_ms", "ms", session)
	attributed := 0.0
	for _, l := range requestLayers {
		share := ratio(float64(layerSum[l]), float64(handlerSum))
		attributed += share
		m.add(l+"_frac", "frac", share, len(t.ops))
	}
	m.add("unattributed_frac", "frac", 1-attributed, len(t.ops))

	sort.Strings(routes)
	for _, r := range routes {
		ops := byRoute[r]
		var h, tr, b, wall []float64
		var timed, walls time.Duration
		for _, op := range ops {
			h = append(h, ms(op.handler))
			tr = append(tr, ms(op.http-op.handler))
			b = append(b, float64(op.bytes)/1024)
			if op.spans.wall > 0 {
				wall = append(wall, ms(op.spans.wall))
				timed += op.spans.timed
				walls += op.spans.wall
			}
		}
		hp50 := m.dist("httpapi.handler_ms."+r, "ms", h)
		m.dist("net.transport_ms."+r, "ms", tr)
		m.dist("httpapi.resp_kb."+r, "KB", b)
		if len(wall) > 0 {
			m.dist("core.build_ms."+r, "ms", wall)
			m.add("core.timed_share."+r, "frac", ratio(float64(timed), float64(walls)), len(wall))
		}
		medians := 0.0
		for _, l := range requestLayers {
			var xs []float64
			seen := false
			for _, op := range ops {
				d, ok := op.spans.req[l]
				seen = seen || ok
				xs = append(xs, ms(d))
			}
			if seen {
				medians += m.dist(l+"_ms."+r, "ms", xs)
			}
		}
		m.add("unattributed_frac."+r, "frac", 1-ratio(medians, hp50), len(ops))
		for _, l := range []string{"dataset.index_extend", "dataview.refresh"} {
			var xs []float64
			for _, op := range ops {
				if d, ok := op.spans.off[l]; ok {
					xs = append(xs, ms(d))
				}
			}
			m.dist(l+"_ms", "ms", xs)
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
