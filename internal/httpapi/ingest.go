package httpapi

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/facet"
	"dbexplorer/internal/fault"
	"dbexplorer/internal/jsonw"
	"dbexplorer/internal/viewcache"
)

// POST /api/v1/{dataset}/ingest appends a batch of rows to a live
// dataset. The body is either JSON —
//
//	{"rows": [["a", 1.5], {"attr": "b", "score": 2}]}
//
// where each row is an array in schema order or an object keyed by
// attribute name — or CSV (Content-Type text/csv) with a header row
// naming the columns. Numeric cells accept JSON numbers (or, in CSV,
// anything strconv.ParseFloat takes); null / empty CSV cells become the
// missing-value NaN.
//
// The whole batch is validated before any row lands, so a bad row
// rejects the batch with the table unmodified. On success the rows are
// immediately visible to the storage layer and the next Table.Index
// call extends the index incrementally over the tail; the serving view
// (discretization snapshot) refreshes in the background, and until it
// does, queries and cached CAD Views answer from the previous snapshot
// flagged with a "stale" row count (see DESIGN.md §15).
func (s *Server) handleIngest(ctx context.Context, ds *datasetEntry, w http.ResponseWriter, r *http.Request) *apiError {
	schema := ds.snapshot().Table().Schema()
	rows, apiErr := s.decodeIngest(schema, r)
	if apiErr != nil {
		return apiErr
	}
	if len(rows) == 0 {
		return errBadRequest(fmt.Errorf("ingest: empty batch"))
	}
	if err := fault.Hit(ctx, fault.PointIngest); err != nil {
		return errFromBuild(err)
	}

	ds.ingestMu.Lock()
	// Re-snapshot under the ingest lock: the digest cache below must be
	// extended against the view whose rows precede this batch.
	v := ds.snapshot()
	t := v.Table()
	if err := t.AppendBatch(rows); err != nil {
		ds.ingestMu.Unlock()
		return errBadRequest(err)
	}
	newRows := t.NumRows()
	epoch := t.Epoch()
	dig := ds.extendBaseDigest(v, newRows)
	ds.ingestMu.Unlock()

	s.ingestRows.Add(int64(len(rows)))
	s.refreshEntry(ds)

	b := append([]byte(nil), `{"appended":`...)
	b = strconv.AppendInt(b, int64(len(rows)), 10)
	b = append(b, `,"dataset":`...)
	b = jsonw.String(b, ds.name)
	b = append(b, `,"digest":`...)
	b = dig.AppendJSON(b)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, `,"rows":`...)
	b = strconv.AppendInt(b, int64(newRows), 10)
	b = append(b, `,"stale":`...)
	b = strconv.AppendInt(b, int64(newRows-v.Rows()), 10)
	writeBody(w, http.StatusOK, append(b, "}\n"...))
	return nil
}

// extendBaseDigest maintains the entry's unfiltered facet digest
// incrementally: seeded with a full pass over the pre-append view
// snapshot once, then each batch extends it by counting only the delta
// rows (facet.ExtendDigest), under the snapshot's discretization.
// Callers hold ingestMu, which keeps (digView, digRows) coherent with
// the append stream.
func (e *datasetEntry) extendBaseDigest(v *dataview.View, newRows int) *facet.Digest {
	e.digMu.Lock()
	defer e.digMu.Unlock()
	if e.digView != v {
		e.baseDig = facet.NewSessionBitmap(v, dataset.FullBitmap(v.Rows())).Digest()
		e.digView, e.digRows = v, v.Rows()
	}
	e.baseDig = facet.ExtendDigest(v, e.baseDig, e.digRows, newRows)
	e.digRows = newRows
	return e.baseDig
}

// decodeIngest parses the request body into AppendBatch rows, bounded
// by WithMaxIngestBatch.
func (s *Server) decodeIngest(schema dataset.Schema, r *http.Request) ([][]any, *apiError) {
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil && (mt == "text/csv" || mt == "application/csv") {
		rows, err := csvRows(schema, r.Body, s.maxIngest)
		if err != nil {
			return nil, errBadRequest(err)
		}
		return rows, nil
	}
	var req struct {
		Rows []json.RawMessage `json:"rows"`
	}
	if apiErr := decode(r, &req); apiErr != nil {
		return nil, apiErr
	}
	if s.maxIngest > 0 && len(req.Rows) > s.maxIngest {
		return nil, errBadRequest(fmt.Errorf("ingest: batch of %d rows exceeds limit %d", len(req.Rows), s.maxIngest))
	}
	rows := make([][]any, len(req.Rows))
	for i, raw := range req.Rows {
		row, err := jsonRow(schema, raw)
		if err != nil {
			return nil, errBadRequest(fmt.Errorf("row %d: %w", i, err))
		}
		rows[i] = row
	}
	return rows, nil
}

// jsonRow converts one JSON row — array in schema order, or object
// keyed by attribute name — into AppendBatch's value conventions.
func jsonRow(schema dataset.Schema, raw json.RawMessage) ([]any, error) {
	var arr []any
	if err := json.Unmarshal(raw, &arr); err == nil {
		if len(arr) != len(schema) {
			return nil, fmt.Errorf("got %d values for %d columns", len(arr), len(schema))
		}
		for i := range arr {
			if arr[i] == nil && schema[i].Kind == dataset.Numeric {
				arr[i] = math.NaN()
			}
		}
		return arr, nil
	}
	var obj map[string]any
	if err := json.Unmarshal(raw, &obj); err != nil {
		return nil, fmt.Errorf("row must be an array or object: %w", err)
	}
	if len(obj) != len(schema) {
		for name := range obj {
			if schema.Index(name) < 0 {
				return nil, fmt.Errorf("unknown column %q", name)
			}
		}
	}
	row := make([]any, len(schema))
	for i, attr := range schema {
		v, ok := obj[attr.Name]
		if !ok {
			return nil, fmt.Errorf("missing column %q", attr.Name)
		}
		if v == nil && attr.Kind == dataset.Numeric {
			v = math.NaN()
		}
		row[i] = v
	}
	return row, nil
}

// csvRows parses a CSV body: a header row naming every schema column
// (any order), then one record per row. Categorical cells pass through
// verbatim; numeric cells parse as float64 with "" as missing (NaN).
func csvRows(schema dataset.Schema, body io.Reader, maxRows int) ([][]any, error) {
	rd := csv.NewReader(body)
	header, err := rd.Read()
	if err != nil {
		return nil, fmt.Errorf("csv: reading header: %w", err)
	}
	cols := make([]int, len(header))
	seen := make([]bool, len(schema))
	for i, name := range header {
		idx := schema.Index(name)
		if idx < 0 {
			return nil, fmt.Errorf("csv: unknown column %q", name)
		}
		if seen[idx] {
			return nil, fmt.Errorf("csv: duplicate column %q", name)
		}
		seen[idx] = true
		cols[i] = idx
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("csv: missing column %q", schema[i].Name)
		}
	}
	var rows [][]any
	for line := 2; ; line++ {
		rec, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csv: %w", err)
		}
		if maxRows > 0 && len(rows) >= maxRows {
			return nil, fmt.Errorf("ingest: batch exceeds limit %d", maxRows)
		}
		row := make([]any, len(schema))
		for i, cell := range rec {
			col := cols[i]
			if schema[col].Kind != dataset.Numeric {
				row[col] = cell
				continue
			}
			if cell == "" {
				row[col] = math.NaN()
				continue
			}
			f, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("csv line %d, column %q: %w", line, schema[col].Name, err)
			}
			row[col] = f
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// refreshEntry rebuilds the entry's serving view over the grown table
// in the background, singleflight per entry. Until the rebuilt view
// swaps in, readers keep answering from the previous snapshot; the
// swap drops the incremental digest cache (its labels belong to the
// old discretization) and implicitly invalidates the cached suggester
// (suggesterFor keys on view identity).
func (s *Server) refreshEntry(e *datasetEntry) {
	if !e.refreshing.CompareAndSwap(false, true) {
		return
	}
	s.reg.Counter("view_refreshes_total").Inc()
	go func() {
		ok := false
		defer func() {
			if v := recover(); v != nil {
				s.panics.Inc()
			}
			e.refreshing.Store(false)
			// An append that landed after the rebuild read its snapshot
			// would otherwise be stranded until the next ingest; retrigger
			// only after a clean pass so a persistent failure cannot spin.
			if cur := e.snapshot(); ok && cur.Rows() != cur.Table().NumRows() {
				s.refreshEntry(e)
			}
		}()
		old := e.snapshot()
		t := old.Table()
		if old.Rows() == t.NumRows() {
			ok = true
			return
		}
		nv, err := dataview.New(t, old.Opts())
		if err != nil {
			s.reg.Counter("view_refresh_failures_total").Inc()
			return
		}
		e.view.Store(nv)
		e.digMu.Lock()
		e.baseDig, e.digView, e.digRows = nil, nil, 0
		e.digMu.Unlock()
		ok = true
	}()
}

// refreshCAD rebuilds one stale cached CAD View in the background,
// singleflight per cache key, while requests keep serving the cached
// entry flagged stale. The rebuild waits its turn behind the entry's
// view refresh (a rebuild over the old snapshot would still be stale)
// and never blocks on a saturated admission gate — the next stale hit
// retries.
func (s *Server) refreshCAD(ds *datasetEntry, key viewcache.Key, req *cadRequest) {
	if v := ds.snapshot(); v.Rows() != v.Table().NumRows() {
		s.refreshEntry(ds)
		return
	}
	s.flightMu.Lock()
	if s.refreshing[key] {
		s.flightMu.Unlock()
		return
	}
	s.refreshing[key] = true
	s.flightMu.Unlock()
	s.staleRefresh.Inc()
	go func() {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Inc()
			}
			s.flightMu.Lock()
			delete(s.refreshing, key)
			s.flightMu.Unlock()
		}()
		if !s.gate.TryAcquire() {
			return
		}
		defer s.gate.Release()
		ctx := context.Background()
		if s.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.timeout)
			defer cancel()
		}
		bv, err := s.coldBuild(ctx, ds, req)
		if err != nil {
			s.reg.Counter("cad_stale_refresh_failures_total").Inc()
			return
		}
		s.cache.Put(key, bv)
	}()
}
