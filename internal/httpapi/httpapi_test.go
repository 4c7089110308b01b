package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataview"
)

func usedCarsView(t *testing.T, n int) *dataview.View {
	t.Helper()
	tbl := datagen.UsedCars(n, 1)
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// newTestServer builds a server over a 3000-row UsedCars dataset with the
// given extra options and returns both the white-box Server and an
// httptest frontend.
func newTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(append([]Option{WithSeed(1)}, opts...)...)
	if err := s.Register("UsedCars", usedCarsView(t, 3000)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	_, srv := newTestServer(t)
	return srv
}

func post(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { res.Body.Close() })
	var out map[string]json.RawMessage
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return res, out
}

// envelope decodes the v1 error envelope out of a response map.
func envelope(t *testing.T, out map[string]json.RawMessage) ErrorBody {
	t.Helper()
	var e ErrorBody
	if err := json.Unmarshal(out["error"], &e); err != nil {
		t.Fatalf("error envelope: %v (raw %s)", err, out["error"])
	}
	return e
}

func TestSchemaEndpoint(t *testing.T) {
	srv := testServer(t)
	// The versioned route and the deprecated alias serve the same schema.
	for _, path := range []string{"/api/v1/UsedCars/schema", "/api/schema"} {
		res, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, res.StatusCode)
		}
		var out struct {
			Dataset string `json:"dataset"`
			Table   string `json:"table"`
			Rows    int    `json:"rows"`
			Attrs   []struct {
				Name      string   `json:"name"`
				Kind      string   `json:"kind"`
				Queriable bool     `json:"queriable"`
				Values    []string `json:"values"`
			} `json:"attrs"`
		}
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.Dataset != "UsedCars" || out.Table != "UsedCars" || out.Rows != 3000 || len(out.Attrs) != 11 {
			t.Errorf("%s schema = %+v", path, out)
		}
		for _, a := range out.Attrs {
			if a.Name == "Engine" && a.Queriable {
				t.Error("Engine should be non-queriable")
			}
			if a.Name == "Make" && len(a.Values) == 0 {
				t.Error("Make values missing")
			}
		}
	}
}

func TestDatasetsEndpoint(t *testing.T) {
	s, srv := newTestServer(t)
	if err := s.Register("Mushroom", func() *dataview.View {
		v, err := dataview.New(datagen.Mushroom(1), dataview.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}()); err != nil {
		t.Fatal(err)
	}
	res, err := http.Get(srv.URL + "/api/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out struct {
		Datasets []struct {
			Name    string `json:"name"`
			Rows    int    `json:"rows"`
			Default bool   `json:"default"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Datasets) != 2 {
		t.Fatalf("datasets = %+v", out.Datasets)
	}
	if out.Datasets[0].Name != "UsedCars" || !out.Datasets[0].Default {
		t.Errorf("first-registered dataset should be the default: %+v", out.Datasets)
	}
	if out.Datasets[1].Name != "Mushroom" || out.Datasets[1].Default {
		t.Errorf("second dataset = %+v", out.Datasets[1])
	}

	// The second dataset is reachable under its own v1 path, and CAD ids
	// do not leak across dataset scopes.
	res2, out2 := post(t, srv, "/api/v1/Mushroom/query", map[string]any{})
	if res2.StatusCode != http.StatusOK {
		t.Fatalf("Mushroom query status = %d: %s", res2.StatusCode, out2["error"])
	}
	res3, out3 := post(t, srv, "/api/v1/UsedCars/cad", map[string]any{"pivot": "Make", "k": 2})
	if res3.StatusCode != http.StatusOK {
		t.Fatalf("cad status = %d: %s", res3.StatusCode, out3["error"])
	}
	var id string
	if err := json.Unmarshal(out3["id"], &id); err != nil {
		t.Fatal(err)
	}
	res4, out4 := post(t, srv, "/api/v1/Mushroom/highlight", map[string]any{"id": id, "pivotValue": "x", "rank": 1})
	if res4.StatusCode != http.StatusNotFound || envelope(t, out4).Code != CodeNotFound {
		t.Errorf("cross-dataset highlight: status %d body %v", res4.StatusCode, out4)
	}
}

func TestErrorEnvelope(t *testing.T) {
	srv := testServer(t)
	// Unknown dataset: not_found.
	res, err := http.Get(srv.URL + "/api/v1/Nope/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset status = %d", res.StatusCode)
	}
	var out map[string]json.RawMessage
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if e := envelope(t, out); e.Code != CodeNotFound || e.Message == "" {
		t.Errorf("envelope = %+v", e)
	}
	// Bad filter: typed bad_attribute envelope naming the attribute.
	res2, out2 := post(t, srv, "/api/v1/UsedCars/query", map[string]any{
		"filters": []map[string]any{{"attr": "Nope", "values": []string{"x"}}},
	})
	if res2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad filter status = %d", res2.StatusCode)
	}
	if e := envelope(t, out2); e.Code != CodeBadAttribute || e.Message == "" || e.Attr != "Nope" {
		t.Errorf("envelope = %+v", e)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := testServer(t)
	res, out := post(t, srv, "/api/v1/UsedCars/query", map[string]any{
		"filters": []map[string]any{{"attr": "BodyType", "values": []string{"SUV"}}},
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", res.StatusCode, out["error"])
	}
	var count int
	if err := json.Unmarshal(out["count"], &count); err != nil {
		t.Fatal(err)
	}
	if count == 0 || count == 3000 {
		t.Errorf("filtered count = %d", count)
	}
	if _, ok := out["digest"]; !ok {
		t.Error("digest missing")
	}
	if _, ok := out["panel"]; !ok {
		t.Error("panel missing")
	}
	var phase string
	if err := json.Unmarshal(out["phase"], &phase); err != nil || phase != "query-revision" {
		t.Errorf("phase = %q", phase)
	}
	// Filter errors become 400s.
	res, out = post(t, srv, "/api/query", map[string]any{
		"filters": []map[string]any{{"attr": "Nope", "values": []string{"x"}}},
	})
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown attr status = %d", res.StatusCode)
	}
	if len(out["error"]) == 0 {
		t.Error("error body missing")
	}
	// Non-queriable attribute rejected as a filter.
	res, _ = post(t, srv, "/api/query", map[string]any{
		"filters": []map[string]any{{"attr": "Engine", "values": []string{"V8"}}},
	})
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("hidden attr filter status = %d", res.StatusCode)
	}
}

func TestCADHighlightReorderFlow(t *testing.T) {
	srv := testServer(t)
	res, out := post(t, srv, "/api/v1/UsedCars/cad", map[string]any{
		"filters": []map[string]any{{"attr": "BodyType", "values": []string{"SUV"}}},
		"pivot":   "Make",
		"k":       2,
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("cad status = %d: %s", res.StatusCode, out["error"])
	}
	var id string
	if err := json.Unmarshal(out["id"], &id); err != nil || id == "" {
		t.Fatalf("id = %q", id)
	}
	var text string
	if err := json.Unmarshal(out["text"], &text); err != nil || !strings.Contains(text, "IUnit 1") {
		t.Errorf("text rendering missing: %q", text[:80])
	}
	var view struct {
		Name string `json:"name"`
		Rows []struct {
			Value string `json:"value"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(out["view"], &view); err != nil || len(view.Rows) == 0 {
		t.Fatalf("view decode: %v", err)
	}
	if view.Name != id {
		t.Errorf("view name %q != id %q", view.Name, id)
	}
	first := view.Rows[0].Value

	// Highlight against the stored view.
	res, out = post(t, srv, "/api/v1/UsedCars/highlight", map[string]any{
		"id": id, "pivotValue": first, "rank": 1,
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("highlight status = %d: %s", res.StatusCode, out["error"])
	}
	if _, ok := out["highlight"]; !ok {
		t.Error("highlight payload missing")
	}

	// Reorder: reference row moves to the front and the stored view
	// updates (exercised through the deprecated alias).
	res, out = post(t, srv, "/api/reorder", map[string]any{
		"id": id, "pivotValue": view.Rows[len(view.Rows)-1].Value,
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("reorder status = %d: %s", res.StatusCode, out["error"])
	}
	var reordered struct {
		Rows []struct {
			Value string `json:"value"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(out["view"], &reordered); err != nil {
		t.Fatal(err)
	}
	if reordered.Rows[0].Value != view.Rows[len(view.Rows)-1].Value {
		t.Errorf("reorder did not move reference first: %v", reordered.Rows)
	}

	// Error paths.
	res, out = post(t, srv, "/api/highlight", map[string]any{"id": "nope", "pivotValue": first, "rank": 1})
	if res.StatusCode != http.StatusNotFound || envelope(t, out).Code != CodeNotFound {
		t.Errorf("unknown id: status %d", res.StatusCode)
	}
	res, _ = post(t, srv, "/api/highlight", map[string]any{"id": id, "pivotValue": "Nope", "rank": 1})
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown pivot value status = %d", res.StatusCode)
	}
	res, _ = post(t, srv, "/api/reorder", map[string]any{"id": "nope", "pivotValue": first})
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("reorder unknown id status = %d", res.StatusCode)
	}
	res, out = post(t, srv, "/api/cad", map[string]any{"pivot": "Nope"})
	if res.StatusCode != http.StatusBadRequest || envelope(t, out).Code != CodeBadAttribute {
		t.Errorf("cad unknown pivot status = %d", res.StatusCode)
	}
}

// TestFilterValidationMatchesAcrossRoutes pins /query, /cad and
// /suggest to one filter check: an unknown attribute, an empty value
// list and a non-queriable attribute get the same status and error code
// on every route, with or without values.
func TestFilterValidationMatchesAcrossRoutes(t *testing.T) {
	s, srv := newTestServer(t)
	e, apiErr := s.dataset("UsedCars")
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	engine, err := e.snapshot().Column("Engine")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		filter Filter
		code   string
	}{
		{"unknown attribute, no values", Filter{Attr: "Nope", Values: []string{}}, CodeBadAttribute},
		{"unknown attribute", Filter{Attr: "Nope", Values: []string{"x"}}, CodeBadAttribute},
		{"empty value list", Filter{Attr: "BodyType", Values: []string{}}, CodeBadRequest},
		{"non-queriable attribute, no values", Filter{Attr: "Engine", Values: []string{}}, CodeBadRequest},
		{"non-queriable attribute", Filter{Attr: "Engine", Values: []string{engine.Label(0)}}, CodeBadRequest},
	}
	for _, c := range cases {
		for _, route := range []struct {
			path string
			body map[string]any
		}{
			{"/api/v1/UsedCars/query", map[string]any{}},
			{"/api/v1/UsedCars/cad", map[string]any{"pivot": "Make"}},
			{"/api/v1/UsedCars/suggest", map[string]any{}},
		} {
			route.body["filters"] = []Filter{c.filter}
			res, out := post(t, srv, route.path, route.body)
			if res.StatusCode != http.StatusBadRequest {
				t.Errorf("%s on %s: status %d, want 400", c.name, route.path, res.StatusCode)
				continue
			}
			if got := envelope(t, out); got.Code != c.code {
				t.Errorf("%s on %s: code %q, want %q (%s)", c.name, route.path, got.Code, c.code, got.Message)
			}
		}
	}
}

func TestBadRequestBodies(t *testing.T) {
	srv := testServer(t)
	for _, path := range []string{"/api/query", "/api/cad", "/api/v1/UsedCars/highlight", "/api/v1/UsedCars/reorder"} {
		res, err := http.Post(srv.URL+path, "application/json", strings.NewReader("not json"))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with garbage body: status %d", path, res.StatusCode)
		}
		// Unknown fields are rejected too.
		res, err = http.Post(srv.URL+path, "application/json", strings.NewReader(`{"bogus": 1}`))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with unknown field: status %d", path, res.StatusCode)
		}
	}
}

// stripName zeroes the per-request view name so two responses for the
// same build can be compared bit-for-bit.
func stripName(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "name")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestCADCacheBitIdentical(t *testing.T) {
	srv := testServer(t)
	req := map[string]any{
		"filters": []map[string]any{{"attr": "BodyType", "values": []string{"SUV", "Sedan"}}},
		"pivot":   "Make",
		"k":       2,
	}
	res1, out1 := post(t, srv, "/api/v1/UsedCars/cad", req)
	if res1.StatusCode != http.StatusOK {
		t.Fatalf("cold cad status = %d: %s", res1.StatusCode, out1["error"])
	}
	var cached bool
	if err := json.Unmarshal(out1["cached"], &cached); err != nil || cached {
		t.Errorf("first build cached = %v", cached)
	}
	// Same predicate with attribute/value order shuffled: same fingerprint.
	req["filters"] = []map[string]any{{"attr": "BodyType", "values": []string{"Sedan", "SUV"}}}
	res2, out2 := post(t, srv, "/api/v1/UsedCars/cad", req)
	if res2.StatusCode != http.StatusOK {
		t.Fatalf("warm cad status = %d: %s", res2.StatusCode, out2["error"])
	}
	if err := json.Unmarshal(out2["cached"], &cached); err != nil || !cached {
		t.Errorf("second build cached = %v", cached)
	}
	if v1, v2 := stripName(t, out1["view"]), stripName(t, out2["view"]); v1 != v2 {
		t.Errorf("cached view differs from cold build:\n%s\nvs\n%s", v1, v2)
	}
	// Each response still gets its own interactive id.
	var id1, id2 string
	json.Unmarshal(out1["id"], &id1)
	json.Unmarshal(out2["id"], &id2)
	if id1 == "" || id1 == id2 {
		t.Errorf("ids = %q, %q", id1, id2)
	}
}

func TestRegisterInvalidatesCache(t *testing.T) {
	s, srv := newTestServer(t)
	req := map[string]any{"pivot": "Make", "k": 2}
	post(t, srv, "/api/v1/UsedCars/cad", req)
	_, out := post(t, srv, "/api/v1/UsedCars/cad", req)
	var cached bool
	if err := json.Unmarshal(out["cached"], &cached); err != nil || !cached {
		t.Fatalf("expected warm cache before re-registration, cached = %v", cached)
	}
	if err := s.Register("UsedCars", usedCarsView(t, 3000)); err != nil {
		t.Fatal(err)
	}
	_, out = post(t, srv, "/api/v1/UsedCars/cad", req)
	if err := json.Unmarshal(out["cached"], &cached); err != nil || cached {
		t.Errorf("re-registration should invalidate the cache, cached = %v", cached)
	}
}

func TestCacheSpeedupAndMetrics(t *testing.T) {
	s := NewServer(WithSeed(1))
	if err := s.Register("UsedCars", usedCarsView(t, 12000)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// autoL sweeps several clusterings per pivot value, making the cold
	// build long enough (~100ms) that the >= 10x bar is meaningful even
	// on a slow single-core machine.
	req := map[string]any{"pivot": "Make", "k": 3, "autoL": true}
	start := time.Now()
	res, out := post(t, srv, "/api/v1/UsedCars/cad", req)
	cold := time.Since(start)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("cold status = %d: %s", res.StatusCode, out["error"])
	}
	start = time.Now()
	res, out = post(t, srv, "/api/v1/UsedCars/cad", req)
	warm := time.Since(start)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("warm status = %d: %s", res.StatusCode, out["error"])
	}
	var cached bool
	if err := json.Unmarshal(out["cached"], &cached); err != nil || !cached {
		t.Fatalf("second request not served from cache")
	}
	// The acceptance bar is >= 10x; only assert when the cold build is
	// long enough for the ratio to be meaningful on a noisy machine.
	if cold >= 25*time.Millisecond && warm > cold/10 {
		t.Errorf("cache speedup too small: cold %v, warm %v", cold, warm)
	}

	// Hit/miss and build-stage instrumentation shows up at /debug/metrics.
	mres, err := http.Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	var snap map[string]json.RawMessage
	if err := json.NewDecoder(mres.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	counter := func(name string) int64 {
		var n int64
		if err := json.Unmarshal(snap[name], &n); err != nil {
			t.Fatalf("metric %s: %v (raw %s)", name, err, snap[name])
		}
		return n
	}
	if counter("cad_cache_hits") < 1 {
		t.Error("cad_cache_hits not incremented")
	}
	if counter("cad_cache_misses") < 1 {
		t.Error("cad_cache_misses not incremented")
	}
	if counter("requests_cad_total") < 2 {
		t.Error("requests_cad_total not incremented")
	}
	for _, h := range []string{"latency_cad_seconds", "build_total_seconds", "build_cluster_seconds"} {
		var hs struct {
			Count int64 `json:"count"`
		}
		if err := json.Unmarshal(snap[h], &hs); err != nil || hs.Count < 1 {
			t.Errorf("histogram %s missing or empty: %s", h, snap[h])
		}
	}
	// The cold build materialized index postings, so the container-aware
	// posting-memory gauge must report a positive footprint.
	if counter("index_posting_memory_bytes") <= 0 {
		t.Error("index_posting_memory_bytes gauge not set after cold build")
	}
	// /debug/vars serves after PublishExpvar without panicking, twice.
	s.Metrics().PublishExpvar("dbexplorer-test")
	s.Metrics().PublishExpvar("dbexplorer-test")
	vres, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vres.Body.Close()
	raw, _ := io.ReadAll(vres.Body)
	if !strings.Contains(string(raw), "dbexplorer-test") {
		t.Error("expvar publication missing from /debug/vars")
	}
}

func TestCancellationAbortsBuild(t *testing.T) {
	// A canceled request context must abort the build at its first
	// checkpoint: the handler runs to completion (synchronously here) and
	// reports the 499/canceled envelope instead of a built view. The
	// context is canceled up front so the test does not depend on timer
	// latency — mid-build cancellation checkpoints are exercised
	// deterministically in internal/core's cancellation tests.
	s := NewServer(WithSeed(1), WithRequestTimeout(0))
	if err := s.Register("UsedCars", usedCarsView(t, 3000)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/api/v1/UsedCars/cad",
		strings.NewReader(`{"pivot":"Model","k":4}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Errorf("canceled request status = %d, body %s", rec.Code, rec.Body.String())
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if e := envelope(t, out); e.Code != CodeCanceled {
		t.Errorf("envelope code = %q", e.Code)
	}
	// Nothing half-built lands in the cache: the same request with a live
	// context is a cold build.
	res := httptest.NewRecorder()
	h.ServeHTTP(res, httptest.NewRequest("POST", "/api/v1/UsedCars/cad",
		strings.NewReader(`{"pivot":"Model","k":4}`)))
	if res.Code != http.StatusOK {
		t.Fatalf("follow-up status = %d", res.Code)
	}
	var ok map[string]json.RawMessage
	if err := json.Unmarshal(res.Body.Bytes(), &ok); err != nil {
		t.Fatal(err)
	}
	var cached bool
	if err := json.Unmarshal(ok["cached"], &cached); err != nil || cached {
		t.Errorf("canceled build must not populate the cache (cached = %v)", cached)
	}
}

func TestRequestTimeout(t *testing.T) {
	// A one-nanosecond budget is expired by the time the handler checks
	// its context, so the build aborts deterministically with
	// 504/timeout (context.WithTimeout cancels synchronously for
	// already-passed deadlines — no timer involved).
	s := NewServer(WithSeed(1), WithRequestTimeout(time.Nanosecond))
	if err := s.Register("UsedCars", usedCarsView(t, 3000)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	res, out := post(t, srv, "/api/v1/UsedCars/cad", map[string]any{"pivot": "Model", "k": 4})
	if res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d: %v", res.StatusCode, out)
	}
	if e := envelope(t, out); e.Code != CodeTimeout {
		t.Errorf("envelope code = %q", e.Code)
	}
}

func TestOverloadedGate(t *testing.T) {
	s, srv := newTestServer(t, WithMaxConcurrent(1), WithRequestTimeout(time.Nanosecond))
	// Hold the only slot so the request finds the gate full; its expired
	// budget then sheds it with 503/overloaded instead of queueing.
	if err := s.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.gate.Release()

	res, out := post(t, srv, "/api/v1/UsedCars/cad", map[string]any{"pivot": "Make", "k": 2})
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d: %v", res.StatusCode, out)
	}
	if e := envelope(t, out); e.Code != CodeOverloaded {
		t.Errorf("envelope code = %q", e.Code)
	}
}

func TestConcurrentRequests(t *testing.T) {
	// Unbounded queue: this test measures correctness under contention,
	// not shedding, and 8 workers can exceed the default depth on small
	// machines (shedding behavior is covered by the chaos suite).
	_, srv := newTestServer(t, WithQueueDepth(0))
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			// Half the workers share one fingerprint (exercising the cache
			// and in-flight coalescing under race), half build their own.
			body, _ := json.Marshal(map[string]any{"pivot": "Make", "k": 2 + w%2})
			res, err := http.Post(srv.URL+"/api/v1/UsedCars/cad", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer res.Body.Close()
			if res.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("worker %d: status %d", w, res.StatusCode)
				return
			}
			var out struct {
				ID string `json:"id"`
			}
			if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			// Follow up with a reorder against the fresh view.
			body, _ = json.Marshal(map[string]any{"id": out.ID, "pivotValue": "Ford"})
			res2, err := http.Post(srv.URL+"/api/v1/UsedCars/reorder", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			res2.Body.Close()
			if res2.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("worker %d reorder: status %d", w, res2.StatusCode)
				return
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestIndexPage(t *testing.T) {
	srv := testServer(t)
	res, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{"DBExplorer", "/api/schema", "/api/cad", "reorder"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
	// Unknown paths 404.
	res2, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", res2.StatusCode)
	}
}
