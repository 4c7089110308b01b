package httpapi

// Byte-identity tests for the appended response bodies. The references
// are the maps those bodies were before they were appended, encoded by
// json.Encoder as writeJSON encoded them. A view inside a /cad or
// /reorder reference is the view's own MarshalJSON bytes, which core's
// tests pin to its struct reference; digests go through refDigest, a
// struct without a MarshalJSON method.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"dbexplorer/internal/core"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/facet"
)

// refDigest encodes a digest's exported fields by reflection.
type refDigest struct{ Attrs []facet.AttrSummary }

// refEncode encodes v the way writeJSON did before bodies were appended.
func refEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refView is the view as a /cad or /reorder body carried it: a copy
// named name.
func refView(t *testing.T, v *core.CADView, name string) json.RawMessage {
	t.Helper()
	out := *v
	out.Name = name
	b, err := json.Marshal(&out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// refRows materializes one page of table rows as JSON objects, as the
// /query route did: NaN (missing numeric) renders as null.
func refRows(t *dataset.Table, rows dataset.RowSet) []map[string]any {
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

// refCAD is a /cad body's map; extra holds the stale and shed flags.
func refCAD(t *testing.T, id string, bv *builtView, cached bool, extra map[string]any) map[string]any {
	t.Helper()
	timings := make(map[string]float64, 8)
	for _, st := range bv.tm.Stages() {
		timings[st.Name+"Ms"] = float64(st.D.Microseconds()) / 1e3
	}
	for _, st := range bv.tm.ClusterDetail.Stages() {
		timings["cluster_"+st.Name+"Ms"] = float64(st.D.Microseconds()) / 1e3
	}
	m := map[string]any{
		"id":      id,
		"view":    refView(t, bv.view, id),
		"text":    bv.text,
		"cached":  cached,
		"buildMs": float64(bv.tm.Total().Microseconds()) / 1e3,
		"timings": timings,
	}
	for k, v := range extra {
		m[k] = v
	}
	return m
}

// sameBytes fails unless got equals want, showing where they part.
func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-60, 0)
	t.Fatalf("%s differs from encoding/json at byte %d of %d (want %d):\n got  …%s\n want …%s",
		what, i, len(got), len(want), got[lo:min(i+60, len(got))], want[lo:min(i+60, len(want))])
}

// rawPost posts body and returns the response with its raw bytes.
func rawPost(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, res.StatusCode, raw)
	}
	if cl := res.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
		t.Errorf("%s: Content-Length %q for a %d-byte body", path, cl, len(raw))
	}
	return res, raw
}

// bodyID reads the "id" field of a /cad body.
func bodyID(t *testing.T, raw []byte) string {
	t.Helper()
	var out struct{ ID string }
	if err := json.Unmarshal(raw, &out); err != nil || out.ID == "" {
		t.Fatalf("no id in body (%v): %.200s", err, raw)
	}
	return out.ID
}

// cachedBuild returns the cached build of a /cad request.
func cachedBuild(t *testing.T, s *Server, req *cadRequest) *builtView {
	t.Helper()
	ds, apiErr := s.dataset("UsedCars")
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	key, err := s.fingerprint(ds, req)
	if err != nil {
		t.Fatal(err)
	}
	bv, _, ok := s.cache.GetStale(key)
	if !ok {
		t.Fatal("build not cached")
	}
	return bv
}

func TestCADBodyMatchesEncodingJSON(t *testing.T) {
	s, srv := newTestServer(t)
	for _, req := range []cadRequest{
		{Pivot: "Make", K: 3},
		{Pivot: "BodyType", K: 2, Filters: []Filter{{Attr: "Make", Values: []string{"Ford", "Jeep"}}}},
		{Pivot: "Make", K: 1, MaxCompare: 1, Filters: []Filter{{Attr: "Color", Values: []string{"Red"}}}},
	} {
		for _, cached := range []bool{false, true} {
			_, raw := rawPost(t, srv, "/api/v1/UsedCars/cad", req)
			bv := cachedBuild(t, s, &req)
			sameBytes(t, fmt.Sprintf("/cad %+v", req), raw, refEncode(t, refCAD(t, bodyID(t, raw), bv, cached, nil)))
		}
	}
	// The stale and shed envelopes, from the appender directly.
	bv := cachedBuild(t, s, &cadRequest{Pivot: "Make", K: 3})
	for _, c := range []struct {
		stale string
		shed  bool
		extra map[string]any
	}{
		{"0", false, map[string]any{"stale": 0}},
		{"1234", false, map[string]any{"stale": 1234}},
		{"true", true, map[string]any{"stale": true, "shed": true}},
		{"false", true, map[string]any{"stale": false, "shed": true}},
	} {
		got, err := appendCAD([]byte("x"), "cad-<9>", bv, true, c.stale, c.shed)
		if err != nil {
			t.Fatal(err)
		}
		sameBytes(t, "appendCAD "+c.stale, got, append([]byte("x"), refEncode(t, refCAD(t, "cad-<9>", bv, true, c.extra))...))
	}
}

// TestShedCADBodyMatchesEncodingJSON serves a re-registered (stale)
// cached view while the gate sheds, and checks the degraded body.
func TestShedCADBodyMatchesEncodingJSON(t *testing.T) {
	s, srv := newTestServer(t, WithMaxConcurrent(1), WithQueueDepth(1))
	req := cadRequest{Pivot: "Make", K: 2}
	rawPost(t, srv, "/api/v1/UsedCars/cad", req)
	if err := s.Register("UsedCars", usedCarsView(t, 3000)); err != nil {
		t.Fatal(err)
	}
	release := saturateGate(t, s)
	defer release()
	_, raw := rawPost(t, srv, "/api/v1/UsedCars/cad", req)
	bv := cachedBuild(t, s, &req)
	want := refCAD(t, bodyID(t, raw), bv, true, map[string]any{"stale": true, "shed": true})
	sameBytes(t, "shed /cad", raw, refEncode(t, want))
}

func TestQueryBodyMatchesEncodingJSON(t *testing.T) {
	s, srv := newTestServer(t)
	ds, _ := s.dataset("UsedCars")
	v := ds.snapshot()
	for _, req := range []queryRequest{
		{},
		{Limit: 7, Offset: 3, Filters: []Filter{{Attr: "Make", Values: []string{"Ford", "Jeep"}}}},
		{Limit: 5, Filters: []Filter{{Attr: "Make", Values: []string{"Ford"}}, {Attr: "BodyType", Values: []string{"SUV"}}}},
		{Limit: 10, Offset: 1 << 20}, // past the end: an empty page
	} {
		_, raw := rawPost(t, srv, "/api/v1/UsedCars/query", req)
		sess, err := buildSession(v, req.Filters)
		if err != nil {
			t.Fatal(err)
		}
		limit := req.Limit
		if limit == 0 {
			limit = DefaultPageLimit
		}
		page, total := sess.Page(req.Offset, limit)
		want := refEncode(t, map[string]any{
			"count":  total,
			"total":  total,
			"offset": req.Offset,
			"limit":  limit,
			"rows":   refRows(v.Table(), page),
			"digest": refDigest{sess.Digest().Attrs},
			"panel":  refDigest{sess.PanelDigest().Attrs},
			"phase":  (&facet.TPFacet{Session: sess}).SuggestPhase(0).String(),
		})
		sameBytes(t, fmt.Sprintf("/query %+v", req), raw, want)
	}
}

// TestPageRowsMatchEncodingJSON covers page rows on a table whose
// attribute names sort on both sides of "_row", with names and values
// encoding/json escapes, numeric cells of every float form and missing
// (NaN) cells, plus an empty page.
func TestPageRowsMatchEncodingJSON(t *testing.T) {
	odd := []string{`<b>&"q"\`, "line\nbreak", "Citroën", "bad \xff utf-8", "sep\u2028par\u2029", ""}
	tbl := dataset.NewTable("odd", dataset.Schema{
		{Name: "zeta", Kind: dataset.Categorical},
		{Name: "Alpha", Kind: dataset.Numeric},
		{Name: "_a", Kind: dataset.Categorical},
		{Name: "ZZ", Kind: dataset.Numeric},
		{Name: "_rox", Kind: dataset.Numeric},
		{Name: odd[0], Kind: dataset.Categorical},
		{Name: odd[2], Kind: dataset.Numeric},
		{Name: odd[4], Kind: dataset.Categorical},
		{Name: "a", Kind: dataset.Categorical},
	})
	nums := []float64{0, math.Copysign(0, -1), 0.1, 1 << 53, 1e20, 1e21, 1e-7, -2.5, math.NaN(), 123456.789}
	for i := 0; i < 30; i++ {
		s := odd[i%len(odd)]
		tbl.MustAppendRow(s, nums[i%len(nums)], odd[(i+1)%len(odd)], nums[(i+3)%len(nums)],
			nums[(i+5)%len(nums)], s, nums[(i+7)%len(nums)], s, "plain")
	}
	for _, rows := range []dataset.RowSet{nil, {}, {0}, dataset.AllRows(30), {29, 3, 17}} {
		got, err := appendRows([]byte("x"), tbl, rows)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(refRows(tbl, rows))
		if err != nil {
			t.Fatal(err)
		}
		sameBytes(t, fmt.Sprintf("page %v", rows), got, append([]byte("x"), want...))
	}
	// A map keeps a repeated key's last value: an attribute named _row
	// replaces the row id, and a repeated name its later column.
	dup := dataset.NewTable("dup", dataset.Schema{
		{Name: "_row", Kind: dataset.Categorical},
		{Name: "b", Kind: dataset.Numeric},
		{Name: "b", Kind: dataset.Categorical},
	})
	dup.MustAppendRow("r0", 1.5, "x")
	got, err := appendRows(nil, dup, dataset.RowSet{0})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(refRows(dup, dataset.RowSet{0}))
	sameBytes(t, "repeated names", got, want)
}

func TestReorderBodyMatchesEncodingJSON(t *testing.T) {
	s, srv := newTestServer(t)
	_, raw := rawPost(t, srv, "/api/v1/UsedCars/cad", cadRequest{Pivot: "Make", K: 3})
	id := bodyID(t, raw)
	ds, _ := s.dataset("UsedCars")
	for _, pv := range []string{"Ford", "Toyota"} {
		sc, apiErr := s.cadByID(ds, id)
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		reordered, sims, err := core.ReorderRows(sc.view, pv)
		if err != nil {
			t.Fatal(err)
		}
		want := refEncode(t, map[string]any{
			"view":         refView(t, reordered, id),
			"similarities": sims,
			"text":         core.Render(reordered, nil),
		})
		_, raw := rawPost(t, srv, "/api/v1/UsedCars/reorder", reorderRequest{ID: id, PivotValue: pv})
		sameBytes(t, "/reorder "+pv, raw, want)
	}
	for _, sims := range [][]core.RowSimilarity{nil, {}, {{PivotValue: "<x>", Distance: 0.1}, {PivotValue: "y", Distance: 3}}} {
		got, err := appendSimilarities(nil, sims)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(sims)
		sameBytes(t, "similarities", got, want)
	}
}

// TestWriteJSONEncodeFailure pins that a value with no JSON form is
// answered 500 with the typed envelope, not a 200 whose body breaks off.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	var out map[string]ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["error"].Code != CodeInternal {
		t.Errorf("body %q (%v), want the internal error envelope", rec.Body.String(), err)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
}
