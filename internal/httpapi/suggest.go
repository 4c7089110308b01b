package httpapi

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"dbexplorer/internal/metrics"
	"dbexplorer/internal/suggest"
)

// suggestRequest is the POST /api/v1/{dataset}/suggest body. Exactly
// one mode applies per request: a partial CADQL statement (completion)
// or a faceted filter set (guided drill-down; an empty filter list asks
// for starting-point recommendations).
type suggestRequest struct {
	Statement       string   `json:"statement,omitempty"`
	Filters         []Filter `json:"filters,omitempty"`
	Limit           int      `json:"limit,omitempty"`
	MaxValues       int      `json:"maxValues,omitempty"`
	IncludeDeadEnds bool     `json:"includeDeadEnds,omitempty"`
}

// suggesterFor returns the dataset's suggestion service, building and
// caching it (with its mined FD/Bayes-net model) on first use. A failed
// model build degrades to a selectivity-only suggester that is NOT
// cached, so the next request retries the mining. The cached model is
// keyed to the view snapshot it was mined from: Register replaces the
// whole datasetEntry, and an ingest-refreshed view invalidates the
// cached suggester here, so a mined model never outlives the rows (or
// discretization) it was built from.
func (s *Server) suggesterFor(ctx context.Context, e *datasetEntry) (*suggest.Suggester, *apiError) {
	v := e.snapshot()
	e.sugMu.Lock()
	defer e.sugMu.Unlock()
	if e.sug != nil && e.sugView == v {
		return e.sug, nil
	}
	if e.sug != nil {
		s.reg.Counter("suggest_model_invalidations_total").Inc()
		e.sug, e.sugView = nil, nil
		e.sugBytes.Store(0)
	}
	start := time.Now()
	m, err := suggest.BuildModel(ctx, v)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, errFromBuild(ctxErr)
		}
		s.reg.Counter("suggest_model_failures_total").Inc()
		return suggest.New(v, nil), nil
	}
	s.reg.Counter("suggest_model_builds_total").Inc()
	s.reg.Histogram("suggest_model_build_seconds", metrics.DefBuckets()).
		ObserveDuration(time.Since(start))
	e.sug = suggest.New(v, m)
	e.sugView = v
	e.sugBytes.Store(int64(m.MemoryBytes()))
	return e.sug, nil
}

func (s *Server) handleSuggest(ctx context.Context, ds *datasetEntry, w http.ResponseWriter, r *http.Request) *apiError {
	var req suggestRequest
	if apiErr := decode(r, &req); apiErr != nil {
		return apiErr
	}
	if req.Statement != "" && len(req.Filters) > 0 {
		return errBadRequest(fmt.Errorf("statement and filters are mutually exclusive: use statement for CADQL completion, filters for drill-down"))
	}
	if req.Limit < 0 {
		return errBadRequest(fmt.Errorf("limit must be >= 0, got %d", req.Limit))
	}
	if req.MaxValues < 0 {
		return errBadRequest(fmt.Errorf("maxValues must be >= 0, got %d", req.MaxValues))
	}
	sug, apiErr := s.suggesterFor(ctx, ds)
	if apiErr != nil {
		return apiErr
	}
	opts := suggest.Options{
		Limit:           req.Limit,
		MaxValues:       req.MaxValues,
		IncludeDeadEnds: req.IncludeDeadEnds,
	}
	if req.Statement != "" {
		c, err := sug.Complete(ctx, req.Statement, opts)
		if err != nil {
			return errFromBuild(err)
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"dataset":    ds.name,
			"mode":       "complete",
			"completion": c,
			"degraded":   c.Degraded,
		})
		return nil
	}
	sels := make([]suggest.Selection, 0, len(req.Filters))
	for _, f := range req.Filters {
		sels = append(sels, suggest.Selection{Attr: f.Attr, Values: f.Values})
	}
	d, err := sug.Drill(ctx, sels, opts)
	if err != nil {
		return errFromBuild(err)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset":   ds.name,
		"mode":      "drilldown",
		"drilldown": d,
		"degraded":  d.Degraded,
	})
	return nil
}

// WarmSuggest eagerly builds the suggestion model and posting sets for
// every registered dataset, so first /suggest requests answer from
// bitmaps instead of paying the mining cost inline. cmd/serve calls it
// behind -warm-suggest.
func (s *Server) WarmSuggest(ctx context.Context) error {
	for _, e := range s.entries() {
		sug, apiErr := s.suggesterFor(ctx, e)
		if apiErr != nil {
			return fmt.Errorf("httpapi: warm suggest %q: %s", e.name, apiErr.body.Message)
		}
		if err := sug.Warm(ctx); err != nil {
			return fmt.Errorf("httpapi: warm suggest %q: %w", e.name, err)
		}
	}
	return nil
}
