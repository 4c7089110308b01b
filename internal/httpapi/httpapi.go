// Package httpapi exposes DBExplorer over HTTP, the way the paper's own
// implementation worked (§6.1: queries come from the faceted interface,
// the backend computes the CAD View and similarity scores, and "the
// resulting CAD View and similarity information" return as HTML and
// JavaScript) — grown into a production serving core.
//
// The v1 API is versioned and dataset-scoped:
//
//	GET  /api/v1/datasets
//	GET  /api/v1/{dataset}/schema
//	POST /api/v1/{dataset}/query
//	POST /api/v1/{dataset}/cad
//	POST /api/v1/{dataset}/highlight
//	POST /api/v1/{dataset}/reorder
//
// with a typed JSON error envelope ({"error": {"code", "message"}}) on
// every failure. The original unversioned /api/* routes remain as
// deprecated aliases onto the default (first-registered) dataset.
//
// Every request gets a lifecycle: a deadline (WithRequestTimeout), a slot
// on a bounded admission gate (WithMaxConcurrent), and a context that is
// plumbed through the whole build path — cancelling the request aborts
// feature selection, k-means, and top-k at their checkpoints. Built CAD
// Views are cached in an LRU (WithCacheSize) keyed by a canonical
// (dataset, filters, pivot, config) fingerprint, with in-flight
// duplicate-request coalescing and invalidation on dataset
// re-registration. Counters, latency histograms, build-stage timings, and
// cache hit/miss rates are exported at /debug/metrics (JSON) and via
// expvar at /debug/vars.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dbexplorer/internal/core"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/facet"
	"dbexplorer/internal/fault"
	"dbexplorer/internal/metrics"
	"dbexplorer/internal/parallel"
	"dbexplorer/internal/suggest"
	"dbexplorer/internal/viewcache"
)

// Defaults for the functional options.
const (
	DefaultCacheSize      = 128
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxIngestBatch = 100000
)

// Server serves one or more registered datasets. CAD Views built through
// the API are kept under ids so highlight/reorder can reference them, and
// whole builds are cached by request fingerprint.
type Server struct {
	seed    int64
	timeout time.Duration

	gate          *parallel.Gate
	queueDepth    int
	queueDepthSet bool
	cache         *viewcache.Cache[*builtView]
	cads          *viewcache.Cache[*storedCAD]

	flightMu   sync.Mutex
	flights    map[viewcache.Key]*flight
	refreshing map[viewcache.Key]bool

	maxIngest    int
	maxIngestSet bool

	reg          *metrics.Registry
	inflight     *metrics.Gauge
	errCount     *metrics.Counter
	rejected     *metrics.Counter
	panics       *metrics.Counter
	staleServed  *metrics.Counter
	cacheHits    *metrics.Counter
	cacheMiss    *metrics.Counter
	coalesced    *metrics.Counter
	ingestRows   *metrics.Counter
	staleRefresh *metrics.Counter
	buildTotal   *metrics.Histogram
	selectivity  *metrics.Histogram

	mu       sync.RWMutex
	datasets map[string]*datasetEntry
	order    []string // registration order; order[0] is the default
	nextID   int
}

// datasetEntry is one registered dataset: its discretized view and
// lazily-built suggestion service. Re-registering a dataset replaces the
// whole entry, so the suggester (and its mined model) can never outlive
// the data it was built from.
//
// The view is a pinned row/epoch snapshot of the table. Ingest appends
// rows to the table immediately but refreshes the serving view in the
// background (refreshEntry), so readers stay lock-free on a consistent
// snapshot and see the new rows as soon as the rebuilt view swaps in.
type datasetEntry struct {
	name string

	// view is the serving snapshot, replaced whole by refreshEntry;
	// snapshot() is the only read path.
	view atomic.Pointer[dataview.View]

	// ingestMu serializes appends + digest maintenance per dataset.
	ingestMu sync.Mutex
	// refreshing is the singleflight latch for the background view
	// rebuild after ingest.
	refreshing atomic.Bool

	// digMu guards the incrementally-maintained base digest: the full
	// unfiltered facet digest under digView's discretization, covering
	// digRows rows. Ingest extends it by counting only the delta
	// (facet.ExtendDigest); a view refresh drops it.
	digMu   sync.Mutex
	baseDig *facet.Digest
	digView *dataview.View
	digRows int

	// sugMu guards the lazy suggester build; concurrent first requests
	// coalesce on the mutex instead of mining the model twice. sugView
	// records which view snapshot the model was mined from, so an
	// ingest-refreshed view invalidates the cached model.
	sugMu   sync.Mutex
	sug     *suggest.Suggester
	sugView *dataview.View
	// sugBytes mirrors the cached model's size for the scrape-time
	// suggest_model_bytes gauge, which must not wait on a model build.
	sugBytes atomic.Int64
}

// snapshot returns the entry's current serving view.
func (e *datasetEntry) snapshot() *dataview.View { return e.view.Load() }

// builtView is one cached CAD View build: the view, its stage timings,
// the base text rendering (Render ignores the per-request name, so the
// text is shared verbatim across cache hits), and the row/epoch
// snapshot it was built from, so cache hits can report how many rows
// have been appended since.
type builtView struct {
	view  *core.CADView
	tm    core.Timings
	text  string
	epoch uint64
	rows  int
}

// storedCAD is one interactive CAD View held under an id for
// highlight/reorder follow-ups.
type storedCAD struct {
	dataset string
	view    *core.CADView
}

// flight is one in-progress build shared by identical concurrent
// requests.
type flight struct {
	done chan struct{}
	bv   *builtView
	err  error
}

// Option configures a Server at construction.
type Option func(*Server)

// WithSeed sets the deterministic clustering seed used for every build.
func WithSeed(seed int64) Option {
	return func(s *Server) { s.seed = seed }
}

// WithCacheSize bounds the built-CAD-View LRU (default DefaultCacheSize;
// <= 0 disables caching).
func WithCacheSize(n int) Option {
	return func(s *Server) { s.cache = viewcache.New[*builtView](n) }
}

// WithRequestTimeout sets the per-request deadline (default
// DefaultRequestTimeout; <= 0 disables it).
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.timeout = d }
}

// WithMaxConcurrent bounds how many API requests run concurrently
// (default: the worker-pool width, parallel.Workers()). Excess requests
// queue until a slot frees, their deadline passes, or the wait queue
// reaches its depth bound (WithQueueDepth).
func WithMaxConcurrent(n int) Option {
	return func(s *Server) { s.gate = parallel.NewGate(n) }
}

// WithMaxIngestBatch bounds how many rows one ingest request may carry
// (default DefaultMaxIngestBatch; n <= 0 removes the bound). Oversized
// batches are rejected before any row is appended.
func WithMaxIngestBatch(n int) Option {
	return func(s *Server) { s.maxIngest, s.maxIngestSet = n, true }
}

// WithQueueDepth bounds how many requests may wait behind a full
// admission gate before the server sheds load — 503 with Retry-After,
// or a degraded cache hit where one exists (see the cad route). The
// default is 4x the gate capacity; n <= 0 removes the bound, restoring
// queue-until-deadline behavior.
func WithQueueDepth(n int) Option {
	return func(s *Server) { s.queueDepth, s.queueDepthSet = n, true }
}

// NewServer creates an empty server; add data with Register. The zero
// configuration serves with DefaultCacheSize, DefaultRequestTimeout, and
// a parallel.Workers()-wide admission gate.
func NewServer(opts ...Option) *Server {
	s := &Server{
		timeout:    DefaultRequestTimeout,
		datasets:   make(map[string]*datasetEntry),
		flights:    make(map[viewcache.Key]*flight),
		refreshing: make(map[viewcache.Key]bool),
		reg:        metrics.NewRegistry(),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.cache == nil {
		s.cache = viewcache.New[*builtView](DefaultCacheSize)
	}
	if s.gate == nil {
		s.gate = parallel.NewGate(0)
	}
	if !s.queueDepthSet {
		s.queueDepth = 4 * s.gate.Capacity()
	}
	if !s.maxIngestSet {
		s.maxIngest = DefaultMaxIngestBatch
	}
	s.gate.SetQueueDepth(s.queueDepth)
	// Interactive views outlive the build cache: highlight/reorder ids
	// stay valid for at least as many sessions as cached builds.
	n := 4 * s.cache.Cap()
	if n < 256 {
		n = 256
	}
	s.cads = viewcache.New[*storedCAD](n)

	s.inflight = s.reg.Gauge("inflight_requests")
	s.errCount = s.reg.Counter("errors_total")
	s.rejected = s.reg.Counter("rejected_total")
	s.panics = s.reg.Counter("panics_recovered")
	s.staleServed = s.reg.Counter("stale_served_total")
	s.cacheHits = s.reg.Counter("cad_cache_hits")
	s.cacheMiss = s.reg.Counter("cad_cache_misses")
	s.coalesced = s.reg.Counter("cad_build_coalesced")
	s.ingestRows = s.reg.Counter("ingest_rows_total")
	s.staleRefresh = s.reg.Counter("cad_stale_refreshes_total")
	s.buildTotal = s.reg.Histogram("build_total_seconds", metrics.DefBuckets())
	s.selectivity = s.reg.Histogram("query_selectivity", []float64{
		0.0001, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1,
	})
	return s
}

// observeSelectivity records what fraction of the view's rows a filter
// stack kept, and refreshes the lazily-built-index gauges — how many
// categorical posting sets, numeric sort orders, and view-level
// posting sets exist process-wide, and how many bytes of posting
// storage this server's registered datasets hold (container-aware, so
// the compression hybrid containers deliver on skewed columns shows up
// here, not just in benches).
func (s *Server) observeSelectivity(kept, base int) {
	if base > 0 {
		s.selectivity.Observe(float64(kept) / float64(base))
	}
	cat, ord := dataset.IndexStats()
	s.reg.Gauge("index_cat_posting_builds").Set(cat)
	s.reg.Gauge("index_num_order_builds").Set(ord)
	catX, ordX := dataset.IndexExtendStats()
	s.reg.Gauge("index_cat_posting_extends").Set(catX)
	s.reg.Gauge("index_num_order_extends").Set(ordX)
	s.reg.Gauge("view_posting_builds").Set(dataview.PostingStats())
	s.reg.Gauge("index_posting_memory_bytes").Set(s.postingMemoryBytes())
}

// postingMemoryBytes sums Index.MemoryBytes over the registered
// datasets' tables — the level the index_posting_memory_bytes gauge
// reports at /debug/metrics.
func (s *Server) postingMemoryBytes() int64 {
	total := int64(0)
	for _, e := range s.entries() {
		total += int64(e.snapshot().Table().Index().MemoryBytes())
	}
	return total
}

// suggestModelBytes sums the cached suggestion models' table bytes over
// the registered datasets — the level the suggest_model_bytes gauge
// reports at /debug/metrics.
func (s *Server) suggestModelBytes() int64 {
	total := int64(0)
	for _, e := range s.entries() {
		total += e.sugBytes.Load()
	}
	return total
}

// entries returns the registered datasets in registration order.
func (s *Server) entries() []*datasetEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*datasetEntry, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.datasets[name])
	}
	return out
}

// Metrics returns the server's metrics registry, for embedding or
// expvar publication (Registry.PublishExpvar).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Register adds (or replaces) a dataset under the given name. The full
// table is the base result set. The first registered dataset becomes the
// default one served by the deprecated unversioned routes and the
// embedded UI. Re-registering a name replaces its data and marks every
// cached CAD View built from it stale: fresh requests rebuild, but while
// the gate is saturated the cad route may still serve the stale view
// (flagged as such) instead of shedding.
func (s *Server) Register(name string, v *dataview.View) error {
	if name == "" {
		return fmt.Errorf("httpapi: empty dataset name")
	}
	if v == nil {
		return fmt.Errorf("httpapi: nil view for dataset %q", name)
	}
	e := &datasetEntry{name: name}
	e.view.Store(v)
	s.mu.Lock()
	if _, exists := s.datasets[name]; !exists {
		s.order = append(s.order, name)
	}
	s.datasets[name] = e
	s.reg.Gauge("datasets_registered").Set(int64(len(s.order)))
	s.mu.Unlock()
	// Marked entries only matter for observability; the count lands in
	// the metrics registry.
	s.reg.Counter("cache_invalidations_total").Add(int64(s.cache.MarkStaleScope(name)))
	return nil
}

// Drain blocks until every admitted request has released its gate slot,
// or ctx expires. It is the second step of graceful shutdown: the HTTP
// listener stops accepting first (http.Server.Shutdown), then Drain
// waits out the in-flight builds.
func (s *Server) Drain(ctx context.Context) error { return s.gate.Drain(ctx) }

// dataset resolves a name ("" = default) to its registered entry.
func (s *Server) dataset(name string) (*datasetEntry, *apiError) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		if len(s.order) == 0 {
			return nil, errNotFound("no datasets registered")
		}
		name = s.order[0]
	}
	e, ok := s.datasets[name]
	if !ok {
		return nil, errNotFound("unknown dataset %q", name)
	}
	return e, nil
}

// Handler returns the HTTP handler: the versioned JSON API under
// /api/v1/, the deprecated unversioned aliases under /api/, debug
// endpoints, and the embedded UI at /.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/datasets", s.api("datasets", s.handleDatasets))
	mux.HandleFunc("GET /api/v1/{dataset}/schema", s.api("schema", s.handleSchema))
	mux.HandleFunc("POST /api/v1/{dataset}/query", s.api("query", s.handleQuery))
	mux.HandleFunc("POST /api/v1/{dataset}/cad", s.apiDegraded("cad", s.handleCAD, s.shedCAD))
	mux.HandleFunc("POST /api/v1/{dataset}/highlight", s.api("highlight", s.handleHighlight))
	mux.HandleFunc("POST /api/v1/{dataset}/reorder", s.api("reorder", s.handleReorder))
	mux.HandleFunc("POST /api/v1/{dataset}/suggest", s.api("suggest", s.handleSuggest))
	mux.HandleFunc("POST /api/v1/{dataset}/ingest", s.api("ingest", s.handleIngest))

	// Deprecated unversioned aliases: same handlers, default dataset,
	// plus Deprecation/Sunset headers and a counter (see docs/API.md for
	// the migration path; the aliases go away at the Sunset date).
	mux.HandleFunc("GET /api/schema", s.deprecated("/api/v1/{dataset}/schema", s.api("schema", s.handleSchema)))
	mux.HandleFunc("POST /api/query", s.deprecated("/api/v1/{dataset}/query", s.api("query", s.handleQuery)))
	mux.HandleFunc("POST /api/cad", s.deprecated("/api/v1/{dataset}/cad", s.apiDegraded("cad", s.handleCAD, s.shedCAD)))
	mux.HandleFunc("POST /api/highlight", s.deprecated("/api/v1/{dataset}/highlight", s.api("highlight", s.handleHighlight)))
	mux.HandleFunc("POST /api/reorder", s.deprecated("/api/v1/{dataset}/reorder", s.api("reorder", s.handleReorder)))
	mux.HandleFunc("POST /api/suggest", s.deprecated("/api/v1/{dataset}/suggest", s.api("suggest", s.handleSuggest)))

	// Refresh the memory gauges at scrape time: postings and suggestion
	// models build lazily during requests, so a value captured when a
	// request started would miss everything that request materialized.
	mux.Handle("GET /debug/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.reg.Gauge("index_posting_memory_bytes").Set(s.postingMemoryBytes())
		s.reg.Gauge("suggest_model_bytes").Set(s.suggestModelBytes())
		s.reg.ServeHTTP(w, r)
	}))
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /", s.handleIndex)
	return mux
}

// Deprecation metadata for the unversioned /api/* aliases (RFC 9745 /
// RFC 8594): the Deprecation header dates when the aliases were
// deprecated, Sunset when they will be removed. docs/API.md carries the
// migration guide.
const (
	// DeprecationDate is when the unversioned aliases were deprecated
	// (2025-02-01, as a Unix timestamp per RFC 9745).
	DeprecationDate = "@1738368000"
	// SunsetDate is when the unversioned aliases will stop being served.
	SunsetDate = "Mon, 01 Feb 2027 00:00:00 GMT"
)

// deprecated wraps an unversioned alias route with Deprecation/Sunset
// headers, a Link to the versioned successor route, and the
// deprecated_api_requests_total counter, so operators can watch alias
// traffic drain before the sunset.
func (s *Server) deprecated(successor string, h http.HandlerFunc) http.HandlerFunc {
	ctr := s.reg.Counter("deprecated_api_requests_total")
	link := fmt.Sprintf("<%s>; rel=\"successor-version\"", successor)
	return func(w http.ResponseWriter, r *http.Request) {
		ctr.Inc()
		w.Header().Set("Deprecation", DeprecationDate)
		w.Header().Set("Sunset", SunsetDate)
		w.Header().Set("Link", link)
		h(w, r)
	}
}

// handlerFunc is one API endpoint running inside a request lifecycle.
type handlerFunc func(ctx context.Context, ds *datasetEntry, w http.ResponseWriter, r *http.Request) *apiError

// shedFunc is a route's graceful-degradation fallback, consulted when
// the admission gate sheds the request (queue at depth). It reports
// whether it produced a response; false falls through to the 503.
type shedFunc func(ctx context.Context, ds *datasetEntry, w http.ResponseWriter, r *http.Request) bool

// api wraps an endpoint with the request lifecycle: per-route counters
// and latency histogram, in-flight gauge, dataset resolution, request
// deadline, panic containment, and an admission-gate slot held for the
// handler's duration.
func (s *Server) api(route string, h handlerFunc) http.HandlerFunc {
	return s.apiDegraded(route, h, nil)
}

// apiDegraded is api plus a load-shedding fallback for routes that can
// answer degraded (e.g. cad serving a stale cached view).
func (s *Server) apiDegraded(route string, h handlerFunc, shed shedFunc) http.HandlerFunc {
	reqs := s.reg.Counter("requests_" + route + "_total")
	lat := s.reg.Histogram("latency_"+route+"_seconds", metrics.DefBuckets())
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		defer func() { lat.ObserveDuration(time.Since(start)) }()

		ctx := r.Context()
		if s.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.timeout)
			defer cancel()
		}
		apiErr := func() (aerr *apiError) {
			// Panic containment: a bug (or injected fault) in the build
			// path must cost one request, not the process. The deferred
			// gate Release runs before this recover, so no slot leaks.
			defer func() {
				if v := recover(); v != nil {
					fmt.Printf("PANIC: %v\n%s\n", v, debugStack())
					s.panics.Inc()
					aerr = errInternal()
				}
			}()
			ds, apiErr := s.dataset(r.PathValue("dataset"))
			if apiErr != nil && route != "datasets" {
				// The datasets listing is the one endpoint that works on an
				// empty server; everything else needs a resolved dataset.
				return apiErr
			}
			// Fast path first: an uncontended request with an
			// already-expired deadline should fail in the build path as a
			// timeout, not masquerade as overload. Only a genuinely full
			// gate reaches the blocking Acquire.
			if !s.gate.TryAcquire() {
				if err := s.gate.Acquire(ctx); err != nil {
					s.rejected.Inc()
					if errors.Is(err, parallel.ErrSaturated) && shed != nil && shed(ctx, ds, w, r) {
						return nil
					}
					return errOverloaded(err)
				}
			}
			defer s.gate.Release()
			return h(ctx, ds, w, r)
		}()
		if apiErr != nil {
			s.errCount.Inc()
			writeAPIError(w, apiErr)
		}
	}
}

// Filter is one attribute's selected values (facet semantics: values of
// one attribute OR, attributes AND).
type Filter struct {
	Attr   string   `json:"attr"`
	Values []string `json:"values"`
}

// canonicalFilters merges each attribute's entries into one with sorted,
// deduplicated values, sorted by attribute, so every spelling of one
// predicate shares one cache fingerprint. An entry without values stays
// apart: the session rejects it, so it must not share a cached key.
func canonicalFilters(filters []Filter) []Filter {
	var out []Filter
	merged := make(map[string][]string)
	for _, f := range filters {
		if len(f.Values) == 0 {
			out = append(out, Filter{Attr: f.Attr})
			continue
		}
		merged[f.Attr] = append(merged[f.Attr], f.Values...)
	}
	for attr, vals := range merged {
		sort.Strings(vals)
		out = append(out, Filter{Attr: attr, Values: slices.Compact(vals)})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Attr < out[j].Attr })
	return out
}

// buildSession builds a facet session over all rows of one view
// snapshot with the request's filters applied by Session.SelectValues,
// the filter rule /suggest applies too. Callers pass the view from
// datasetEntry.snapshot so the whole request runs on one snapshot even
// if an ingest refresh swaps the entry's view mid-flight.
func buildSession(v *dataview.View, filters []Filter) (*facet.Session, error) {
	sess := facet.NewSessionBitmap(v, dataset.FullBitmap(v.Rows()))
	for _, f := range filters {
		if err := sess.SelectValues(f.Attr, f.Values); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

func (s *Server) handleDatasets(_ context.Context, _ *datasetEntry, w http.ResponseWriter, _ *http.Request) *apiError {
	s.mu.RLock()
	type info struct {
		Name    string `json:"name"`
		Table   string `json:"table"`
		Rows    int    `json:"rows"`
		Default bool   `json:"default"`
	}
	out := make([]info, 0, len(s.order))
	for i, name := range s.order {
		v := s.datasets[name].snapshot()
		out = append(out, info{
			Name:    name,
			Table:   v.Table().Name(),
			Rows:    v.Table().NumRows(),
			Default: i == 0,
		})
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
	return nil
}

// schemaAttr describes one attribute to the UI.
type schemaAttr struct {
	Name      string   `json:"name"`
	Kind      string   `json:"kind"`
	Queriable bool     `json:"queriable"`
	Values    []string `json:"values"`
}

func (s *Server) handleSchema(_ context.Context, ds *datasetEntry, w http.ResponseWriter, _ *http.Request) *apiError {
	v := ds.snapshot()
	schema := v.Table().Schema()
	out := make([]schemaAttr, 0, len(schema))
	for _, col := range v.Columns() {
		a := schemaAttr{
			Name:      col.Attr,
			Kind:      schema[col.Col].Kind.String(),
			Queriable: schema[col.Col].Queriable,
		}
		if col.Cardinality() <= 64 {
			a.Values = col.Labels()
		}
		out = append(out, a)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset": ds.name,
		"table":   v.Table().Name(),
		"rows":    v.Table().NumRows(),
		"attrs":   out,
	})
	return nil
}

// Paging bounds for the query route: limit defaults to
// DefaultPageLimit when the request omits it and is clamped to
// MaxPageLimit — a page is a UI screenful, not a bulk-export channel.
const (
	DefaultPageLimit = 100
	MaxPageLimit     = 1000
)

type queryRequest struct {
	Filters []Filter `json:"filters"`
	Limit   int      `json:"limit,omitempty"`
	Offset  int      `json:"offset,omitempty"`
}

func (s *Server) handleQuery(_ context.Context, ds *datasetEntry, w http.ResponseWriter, r *http.Request) *apiError {
	var req queryRequest
	if apiErr := decode(r, &req); apiErr != nil {
		return apiErr
	}
	if req.Limit < 0 {
		return errBadRequest(fmt.Errorf("limit must be >= 0, got %d", req.Limit))
	}
	if req.Offset < 0 {
		return errBadRequest(fmt.Errorf("offset must be >= 0, got %d", req.Offset))
	}
	limit := req.Limit
	if limit == 0 {
		limit = DefaultPageLimit
	}
	if limit > MaxPageLimit {
		limit = MaxPageLimit
	}
	v := ds.snapshot()
	sess, err := buildSession(v, req.Filters)
	if err != nil {
		return errBadRequest(err)
	}
	page, total := sess.Page(req.Offset, limit)
	s.observeSelectivity(total, v.Rows())
	writeJSON(w, http.StatusOK, map[string]any{
		"count":  total,
		"total":  total,
		"offset": req.Offset,
		"limit":  limit,
		"rows":   renderRows(v.Table(), page),
		"digest": sess.Digest(),
		"panel":  sess.PanelDigest(),
		"phase":  (&facet.TPFacet{Session: sess}).SuggestPhase(0).String(),
	})
	return nil
}

// renderRows materializes one page of table rows as JSON objects. NaN
// (missing numeric) renders as null — encoding/json rejects NaN.
func renderRows(t *dataset.Table, rows dataset.RowSet) []map[string]any {
	schema := t.Schema()
	out := make([]map[string]any, 0, len(rows))
	for _, row := range rows {
		obj := make(map[string]any, len(schema)+1)
		obj["_row"] = row
		for col, attr := range schema {
			if cat := t.Cat(col); cat != nil {
				obj[attr.Name] = cat.Value(row)
				continue
			}
			if num := t.Num(col); num != nil {
				v := num.Value(row)
				if math.IsNaN(v) {
					obj[attr.Name] = nil
				} else {
					obj[attr.Name] = v
				}
			}
		}
		out = append(out, obj)
	}
	return out
}

type cadRequest struct {
	Filters      []Filter `json:"filters"`
	Pivot        string   `json:"pivot"`
	PivotValues  []string `json:"pivotValues,omitempty"`
	CompareAttrs []string `json:"compareAttrs,omitempty"`
	K            int      `json:"k,omitempty"`
	MaxCompare   int      `json:"maxCompare,omitempty"`
	AutoL        bool     `json:"autoL,omitempty"`
}

// fingerprint canonically keys a CAD request: dataset scope plus a hash
// of the normalized filters and every config field that affects the
// build.
func (s *Server) fingerprint(ds *datasetEntry, req *cadRequest) (viewcache.Key, error) {
	fp, err := viewcache.Fingerprint(
		canonicalFilters(req.Filters),
		req.Pivot,
		req.PivotValues,
		req.CompareAttrs,
		req.K,
		req.MaxCompare,
		req.AutoL,
		s.seed,
	)
	if err != nil {
		return "", err
	}
	return viewcache.NewKey(ds.name, fp), nil
}

func (s *Server) handleCAD(ctx context.Context, ds *datasetEntry, w http.ResponseWriter, r *http.Request) *apiError {
	var req cadRequest
	if apiErr := decode(r, &req); apiErr != nil {
		return apiErr
	}
	key, err := s.fingerprint(ds, &req)
	if err != nil {
		return errBadRequest(err)
	}
	bv, cached, err := s.buildCAD(ctx, ds, key, &req)
	if err != nil {
		return errFromBuild(err)
	}
	id := s.storeCAD(ds, bv.view)
	// The cached view is shared across requests; give each response its
	// own id without mutating the shared struct.
	out := *bv.view
	out.Name = id
	resp := map[string]any{
		"id":      id,
		"view":    &out,
		"text":    bv.text,
		"cached":  cached,
		"buildMs": float64(bv.tm.Total().Microseconds()) / 1e3,
		"timings": timingsJSON(bv.tm),
	}
	// Epoch-aware stale serve: a cache hit built before rows were
	// appended still answers immediately, flagged with how many rows it
	// is missing, while a singleflight background rebuild refreshes the
	// entry (see DESIGN.md §15 for the contract).
	if cached {
		if t := ds.snapshot().Table(); t.Epoch() != bv.epoch {
			stale := t.NumRows() - bv.rows
			if stale < 0 {
				stale = 0
			}
			resp["stale"] = stale
			s.staleServed.Inc()
			s.refreshCAD(ds, key, &req)
		}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// shedCAD is the cad route's graceful-degradation fallback: when the
// admission gate sheds the request, answer from the cache anyway —
// including entries marked stale by a dataset re-registration — rather
// than 503. The response carries "stale" and "shed" flags so clients
// know they got a degraded answer. Returns false (shed with 503) when
// the request is malformed or nothing cached matches.
func (s *Server) shedCAD(_ context.Context, ds *datasetEntry, w http.ResponseWriter, r *http.Request) bool {
	var req cadRequest
	if decode(r, &req) != nil {
		return false
	}
	key, err := s.fingerprint(ds, &req)
	if err != nil {
		return false
	}
	bv, stale, ok := s.cache.GetStale(key)
	if !ok {
		return false
	}
	s.staleServed.Inc()
	id := s.storeCAD(ds, bv.view)
	out := *bv.view
	out.Name = id
	writeJSON(w, http.StatusOK, map[string]any{
		"id":      id,
		"view":    &out,
		"text":    bv.text,
		"cached":  true,
		"stale":   stale,
		"shed":    true,
		"buildMs": float64(bv.tm.Total().Microseconds()) / 1e3,
		"timings": timingsJSON(bv.tm),
	})
	return true
}

func timingsJSON(tm core.Timings) map[string]float64 {
	out := make(map[string]float64, 8)
	for _, st := range tm.Stages() {
		out[st.Name+"Ms"] = float64(st.D.Microseconds()) / 1e3
	}
	// Sub-breakdown of the cluster stage (additive keys; their sum plus
	// encoding time equals clusterMs).
	for _, st := range tm.ClusterDetail.Stages() {
		out["cluster_"+st.Name+"Ms"] = float64(st.D.Microseconds()) / 1e3
	}
	return out
}

// buildCAD returns the CAD View for the request — from the LRU cache, by
// joining an identical in-flight build, or by building it under ctx. The
// bool reports whether the result came from cache or coalescing.
func (s *Server) buildCAD(ctx context.Context, ds *datasetEntry, key viewcache.Key, req *cadRequest) (*builtView, bool, error) {
	for {
		if bv, ok := s.cache.Get(key); ok {
			s.cacheHits.Inc()
			return bv, true, nil
		}
		s.flightMu.Lock()
		if f, ok := s.flights[key]; ok {
			s.flightMu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if f.err == nil {
				s.coalesced.Inc()
				return f.bv, true, nil
			}
			if fe := errFromBuild(f.err); fe.body.Code == CodeBadRequest {
				// Deterministic failure — identical input fails for us too.
				return nil, false, f.err
			}
			// The leader was canceled or timed out; retry, possibly
			// becoming the new leader, unless we are done ourselves.
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
			continue
		}
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.flightMu.Unlock()

		s.cacheMiss.Inc()
		settled := false
		defer func() {
			if settled {
				return
			}
			// The leader panicked mid-build. Fail the flight before the
			// panic continues to the recovery middleware, so coalesced
			// waiters get an error instead of blocking forever on a done
			// channel that would never close.
			f.err = errBuildPanicked
			s.flightMu.Lock()
			delete(s.flights, key)
			s.flightMu.Unlock()
			close(f.done)
		}()
		f.bv, f.err = s.coldBuild(ctx, ds, req)

		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(f.done)
		settled = true

		if f.err != nil {
			return nil, false, f.err
		}
		s.cache.Put(key, f.bv)
		return f.bv, false, nil
	}
}

// coldBuild runs one full CAD View construction and records its stage
// timings in the metrics registry.
func (s *Server) coldBuild(ctx context.Context, ds *datasetEntry, req *cadRequest) (*builtView, error) {
	if err := fault.Hit(ctx, fault.PointViewcacheFill); err != nil {
		return nil, err
	}
	v := ds.snapshot()
	sess, err := buildSession(v, req.Filters)
	if err != nil {
		return nil, err
	}
	rows := sess.Bitmap()
	s.observeSelectivity(rows.Len(), v.Rows())
	view, tm, err := core.BuildBitmap(ctx, v, rows, core.Config{
		Pivot:        req.Pivot,
		PivotValues:  req.PivotValues,
		CompareAttrs: req.CompareAttrs,
		K:            req.K,
		MaxCompare:   req.MaxCompare,
		AutoL:        req.AutoL,
		Seed:         s.seed,
		Parallel:     true,
	})
	if err != nil {
		return nil, err
	}
	for _, st := range tm.Stages() {
		s.reg.Histogram("build_"+st.Name+"_seconds", metrics.DefBuckets()).ObserveDuration(st.D)
	}
	for _, st := range tm.ClusterDetail.Stages() {
		s.reg.Histogram("build_cluster_"+st.Name+"_seconds", metrics.DefBuckets()).ObserveDuration(st.D)
	}
	s.buildTotal.ObserveDuration(tm.Total())
	return &builtView{
		view:  view,
		tm:    tm,
		text:  core.Render(view, nil),
		epoch: v.Epoch(),
		rows:  v.Rows(),
	}, nil
}

// storeCAD registers an interactive view under a fresh id.
func (s *Server) storeCAD(ds *datasetEntry, view *core.CADView) string {
	s.mu.Lock()
	s.nextID++
	id := "cad-" + strconv.Itoa(s.nextID)
	s.mu.Unlock()
	s.cads.Put(viewcache.Key(id), &storedCAD{dataset: ds.name, view: view})
	return id
}

// cadByID returns an interactive view, checking it belongs to the
// request's dataset so v1 clients cannot cross dataset scopes.
func (s *Server) cadByID(ds *datasetEntry, id string) (*storedCAD, *apiError) {
	sc, ok := s.cads.Get(viewcache.Key(id))
	if !ok || sc.dataset != ds.name {
		return nil, errNotFound("unknown CAD view %q", id)
	}
	return sc, nil
}

type highlightRequest struct {
	ID         string  `json:"id"`
	PivotValue string  `json:"pivotValue"`
	Rank       int     `json:"rank"`
	Tau        float64 `json:"tau,omitempty"`
}

func (s *Server) handleHighlight(_ context.Context, ds *datasetEntry, w http.ResponseWriter, r *http.Request) *apiError {
	var req highlightRequest
	if apiErr := decode(r, &req); apiErr != nil {
		return apiErr
	}
	sc, apiErr := s.cadByID(ds, req.ID)
	if apiErr != nil {
		return apiErr
	}
	tau := req.Tau
	if tau == 0 {
		tau = sc.view.Tau
	}
	h, err := core.HighlightSimilar(sc.view, req.PivotValue, req.Rank, tau)
	if err != nil {
		return errBadRequest(err)
	}
	writeJSON(w, http.StatusOK, map[string]any{"highlight": h, "text": core.Render(sc.view, h)})
	return nil
}

type reorderRequest struct {
	ID         string `json:"id"`
	PivotValue string `json:"pivotValue"`
}

func (s *Server) handleReorder(_ context.Context, ds *datasetEntry, w http.ResponseWriter, r *http.Request) *apiError {
	var req reorderRequest
	if apiErr := decode(r, &req); apiErr != nil {
		return apiErr
	}
	sc, apiErr := s.cadByID(ds, req.ID)
	if apiErr != nil {
		return apiErr
	}
	reordered, sims, err := core.ReorderRows(sc.view, req.PivotValue)
	if err != nil {
		return errBadRequest(err)
	}
	reordered.Name = req.ID
	s.cads.Put(viewcache.Key(req.ID), &storedCAD{dataset: ds.name, view: reordered})
	writeJSON(w, http.StatusOK, map[string]any{
		"view":         reordered,
		"similarities": sims,
		"text":         core.Render(reordered, nil),
	})
	return nil
}

func decode(r *http.Request, into any) *apiError {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return errBadRequest(fmt.Errorf("bad request body: %w", err))
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing more to do than log via the default
		// error path.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func debugStack() []byte { return debug.Stack() }
