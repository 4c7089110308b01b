package httpapi

// Tests for the live-ingest path: CSV and JSON batch appends, the
// epoch-aware stale-serve contract on cached CAD Views, background view
// refresh, suggester invalidation, and the ingest fault point.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"slices"

	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/facet"
	"dbexplorer/internal/fault"
	"dbexplorer/internal/suggest"
)

// ingestView builds a small 3-column dataset whose rows are easy to
// write inline in ingest bodies.
func ingestView(t *testing.T, n int) *dataview.View {
	t.Helper()
	tbl := dataset.NewTable("pets", dataset.Schema{
		{Name: "kind", Kind: dataset.Categorical, Queriable: true},
		{Name: "city", Kind: dataset.Categorical, Queriable: true},
		{Name: "age", Kind: dataset.Numeric, Queriable: true},
	})
	kinds := []string{"cat", "dog", "bird"}
	cities := []string{"SF", "NY"}
	for i := 0; i < n; i++ {
		tbl.MustAppendRow(kinds[i%len(kinds)], cities[i%len(cities)], float64(i%15))
	}
	v, err := dataview.New(tbl, dataview.Options{Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func newIngestServer(t *testing.T, n int, opts ...Option) (*Server, *datasetEntry, *httptest.Server) {
	t.Helper()
	s := NewServer(append([]Option{WithSeed(1)}, opts...)...)
	if err := s.Register("pets", ingestView(t, n)); err != nil {
		t.Fatal(err)
	}
	e, apiErr := s.dataset("pets")
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, e, srv
}

// waitViewRows polls until the entry's background-refreshed serving
// view covers want rows.
func waitViewRows(t *testing.T, e *datasetEntry, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v := e.snapshot(); v.Rows() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	v := e.snapshot()
	t.Fatalf("serving view stuck at %d rows, want %d", v.Rows(), want)
}

// TestQueryLeavesGrownIndexAlone pins that a /query reads only its
// serving view: rows appended to the table behind the view's back must
// not make the request extend the table's posting index. The
// posting-memory gauge, whose measurement reads the live index, is
// refreshed when /debug/metrics is scraped, not per request. The extend
// counters are process-wide, so the test sits before the ingest tests,
// whose background refreshes can extend their own tables' indexes late.
func TestQueryLeavesGrownIndexAlone(t *testing.T) {
	_, e, srv := newIngestServer(t, 120)
	query := map[string]any{"filters": []Filter{{Attr: "kind", Values: []string{"cat"}}}}
	if res, out := post(t, srv, "/api/v1/pets/query", query); res.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %v", res.StatusCode, out)
	}
	if err := e.snapshot().Table().AppendBatch([][]any{{"cat", "SF", 2.0}, {"dog", "NY", 9.0}}); err != nil {
		t.Fatal(err)
	}
	cat, ord := dataset.IndexExtendStats()
	if res, out := post(t, srv, "/api/v1/pets/query", query); res.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %v", res.StatusCode, out)
	}
	if cat2, ord2 := dataset.IndexExtendStats(); cat2 != cat || ord2 != ord {
		t.Errorf("/query extended the index: categorical %d -> %d, numeric %d -> %d", cat, cat2, ord, ord2)
	}
}

func TestIngestJSON(t *testing.T) {
	_, e, srv := newIngestServer(t, 60)
	res, out := post(t, srv, "/api/v1/pets/ingest", map[string]any{
		"rows": []any{
			[]any{"cat", "SF", 3},
			map[string]any{"kind": "dog", "city": "NY", "age": 7},
			[]any{"fish", "SF", nil}, // new dictionary value + missing numeric
		},
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %v", res.StatusCode, out)
	}
	var appended, rows, stale int
	mustUnmarshal(t, out["appended"], &appended)
	mustUnmarshal(t, out["rows"], &rows)
	mustUnmarshal(t, out["stale"], &stale)
	if appended != 3 || rows != 63 || stale != 3 {
		t.Fatalf("appended=%d rows=%d stale=%d, want 3/63/3", appended, rows, stale)
	}
	if out["digest"] == nil || string(out["digest"]) == "null" {
		t.Fatal("ingest response carries no delta digest")
	}
	v := e.snapshot()
	if got := v.Table().NumRows(); got != 63 {
		t.Fatalf("table at %d rows, want 63", got)
	}

	// The background refresh swaps in a view covering the new rows; a
	// query then sees them (new dictionary value included).
	waitViewRows(t, e, 63)
	res, out = post(t, srv, "/api/v1/pets/query", map[string]any{
		"filters": []Filter{{Attr: "kind", Values: []string{"fish"}}},
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %v", res.StatusCode, out)
	}
	var total int
	mustUnmarshal(t, out["total"], &total)
	if total != 1 {
		t.Fatalf("query found %d fish after ingest, want 1", total)
	}
}

func TestIngestCSV(t *testing.T) {
	_, e, srv := newIngestServer(t, 30)
	// Header order differs from the schema; an empty numeric cell is a
	// missing value.
	body := "city,kind,age\nSF,cat,4\nNY,dog,\n"
	res, err := http.Post(srv.URL+"/api/v1/pets/ingest", "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("csv ingest status %d", res.StatusCode)
	}
	var out struct{ Appended, Rows int }
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Appended != 2 || out.Rows != 32 {
		t.Fatalf("appended=%d rows=%d, want 2/32", out.Appended, out.Rows)
	}
	v := e.snapshot()
	tbl := v.Table()
	if tbl.Cat(0).Value(30) != "cat" || tbl.Cat(1).Value(31) != "NY" {
		t.Fatal("csv cells landed in the wrong columns")
	}

	for name, bad := range map[string]string{
		"unknown column": "kind,city,age,extra\ncat,SF,1,x\n",
		"missing column": "kind,city\ncat,SF\n",
		"bad numeric":    "kind,city,age\ncat,SF,notanumber\n",
	} {
		res, err := http.Post(srv.URL+"/api/v1/pets/ingest", "text/csv", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, res.StatusCode)
		}
	}
	if got := tbl.NumRows(); got != 32 {
		t.Fatalf("rejected CSV batches mutated the table: %d rows", got)
	}
}

// TestIngestCSVRejectsInfinity: "Inf" parses as a float but is no
// numeric value. A batch carrying one is a 400 naming the column, and the
// table keeps its rows and epoch.
func TestIngestCSVRejectsInfinity(t *testing.T) {
	_, e, srv := newIngestServer(t, 50)
	tbl := e.snapshot().Table()
	epoch := tbl.Epoch()
	res, err := http.Post(srv.URL+"/api/v1/pets/ingest", "text/csv",
		strings.NewReader("kind,city,age\ncat,SF,Inf\ndog,NY,-Inf\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out struct {
		Error struct{ Code, Message string }
	}
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusBadRequest || !strings.Contains(out.Error.Message, `"age"`) {
		t.Fatalf("status %d, error %+v; want 400 naming column \"age\"", res.StatusCode, out.Error)
	}
	if tbl.NumRows() != 50 || tbl.Epoch() != epoch {
		t.Fatalf("rejected ingest mutated the table: rows=%d epoch=%d", tbl.NumRows(), tbl.Epoch())
	}
}

func TestIngestValidation(t *testing.T) {
	_, e, srv := newIngestServer(t, 30, WithMaxIngestBatch(2))
	v := e.snapshot()
	epoch := v.Table().Epoch()

	cases := []struct {
		name string
		body any
	}{
		{"empty batch", map[string]any{"rows": []any{}}},
		{"bad row type", map[string]any{"rows": []any{[]any{"cat", "SF", "old"}}}},
		{"wrong arity", map[string]any{"rows": []any{[]any{"cat", "SF"}}}},
		{"unknown attr", map[string]any{"rows": []any{map[string]any{"kind": "cat", "city": "SF", "height": 3}}}},
		{"over batch limit", map[string]any{"rows": []any{
			[]any{"cat", "SF", 1}, []any{"cat", "SF", 2}, []any{"cat", "SF", 3},
		}}},
		{"all-or-nothing", map[string]any{"rows": []any{
			[]any{"cat", "SF", 1}, []any{"cat", "SF", "bad"},
		}}},
	}
	for _, c := range cases {
		res, out := post(t, srv, "/api/v1/pets/ingest", c.body)
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%v)", c.name, res.StatusCode, out)
		}
		if got := v.Table().NumRows(); got != 30 || v.Table().Epoch() != epoch {
			t.Fatalf("%s: rejected ingest mutated the table", c.name)
		}
	}
}

func TestIngestStaleServeCAD(t *testing.T) {
	s, e, srv := newIngestServer(t, 120)
	req := map[string]any{"pivot": "kind"}
	res, out := post(t, srv, "/api/v1/pets/cad", req)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("cad status %d: %v", res.StatusCode, out)
	}
	if out["stale"] != nil {
		t.Fatalf("fresh build flagged stale: %s", out["stale"])
	}

	res, out = post(t, srv, "/api/v1/pets/ingest", map[string]any{
		"rows": []any{[]any{"cat", "SF", 2}, []any{"dog", "NY", 9}},
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %v", res.StatusCode, out)
	}

	// The cached CAD View answers immediately, flagged with the rows it
	// is missing, while the background rebuild refreshes it.
	res, out = post(t, srv, "/api/v1/pets/cad", req)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("cad status %d: %v", res.StatusCode, out)
	}
	var cached bool
	mustUnmarshal(t, out["cached"], &cached)
	if !cached {
		t.Fatal("post-ingest cad request missed the cache")
	}
	var stale int
	if out["stale"] == nil {
		t.Fatal("cache hit over appended rows not flagged stale")
	}
	mustUnmarshal(t, out["stale"], &stale)
	if stale != 2 {
		t.Fatalf("stale = %d, want 2", stale)
	}
	if s.staleServed.Value() == 0 {
		t.Fatal("stale_served_total not incremented")
	}

	// Eventually the refreshed build lands: same request, cached, fresh.
	waitViewRows(t, e, 122)
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, out = post(t, srv, "/api/v1/pets/cad", req)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("cad status %d: %v", res.StatusCode, out)
		}
		if out["stale"] == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cached CAD View never refreshed after ingest")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.staleRefresh.Value() == 0 {
		t.Fatal("cad_stale_refreshes_total not incremented")
	}
}

func TestIngestInvalidatesSuggester(t *testing.T) {
	s, e, srv := newIngestServer(t, 90)
	ask := func() {
		res, out := post(t, srv, "/api/v1/pets/suggest", map[string]any{"filters": []Filter{}})
		if res.StatusCode != http.StatusOK {
			t.Fatalf("suggest status %d: %v", res.StatusCode, out)
		}
	}
	modelBytes := func() int64 {
		t.Helper()
		res, err := http.Get(srv.URL + "/debug/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var snap map[string]json.RawMessage
		if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		var n int64
		mustUnmarshal(t, snap["suggest_model_bytes"], &n)
		return n
	}
	if got := modelBytes(); got != 0 {
		t.Fatalf("suggest_model_bytes = %d before any model, want 0", got)
	}
	ask()
	if got := s.reg.Counter("suggest_model_builds_total").Value(); got != 1 {
		t.Fatalf("model builds = %d, want 1", got)
	}
	v := e.snapshot()
	m, err := suggest.BuildModel(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := modelBytes(), int64(m.MemoryBytes()); got != want || got <= 0 {
		t.Fatalf("suggest_model_bytes = %d, want the model's %d", got, want)
	}
	ask()
	if got := s.reg.Counter("suggest_model_builds_total").Value(); got != 1 {
		t.Fatalf("cached suggester rebuilt: %d builds", got)
	}

	res, out := post(t, srv, "/api/v1/pets/ingest", map[string]any{
		"rows": []any{[]any{"cat", "SF", 5}},
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %v", res.StatusCode, out)
	}
	waitViewRows(t, e, 91)
	ask()
	if got := s.reg.Counter("suggest_model_invalidations_total").Value(); got != 1 {
		t.Fatalf("model invalidations = %d, want 1", got)
	}
	if got := s.reg.Counter("suggest_model_builds_total").Value(); got != 2 {
		t.Fatalf("model builds = %d after invalidation, want 2", got)
	}
}

func TestIngestFaultPoint(t *testing.T) {
	_, e, srv := newIngestServer(t, 30)
	boom := errors.New("injected ingest failure")
	restore := fault.Activate(fault.NewInjector().Fail(fault.PointIngest, boom, 1))
	defer restore()

	res, out := post(t, srv, "/api/v1/pets/ingest", map[string]any{
		"rows": []any{[]any{"cat", "SF", 1}},
	})
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("faulted ingest status %d: %v", res.StatusCode, out)
	}
	v := e.snapshot()
	if got := v.Table().NumRows(); got != 30 {
		t.Fatalf("faulted ingest appended rows: %d", got)
	}
	// The rule fired once; the next ingest goes through.
	res, _ = post(t, srv, "/api/v1/pets/ingest", map[string]any{
		"rows": []any{[]any{"cat", "SF", 1}},
	})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("post-fault ingest status %d", res.StatusCode)
	}
}

// TestIngestConcurrentWithQueries races ingest batches against query,
// digest, and CAD traffic (run under -race in CI): every response must
// be internally consistent, and the final refreshed view must cover
// every appended row.
func TestIngestConcurrentWithQueries(t *testing.T) {
	_, e, srv := newIngestServer(t, 150)
	const batches, per = 8, 25
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, out := post(t, srv, "/api/v1/pets/query", map[string]any{})
				if res.StatusCode != http.StatusOK {
					t.Errorf("query status %d: %v", res.StatusCode, out)
					return
				}
				res, out = post(t, srv, "/api/v1/pets/cad", map[string]any{"pivot": "kind"})
				if res.StatusCode != http.StatusOK {
					t.Errorf("cad status %d: %v", res.StatusCode, out)
					return
				}
				res, out = post(t, srv, "/api/v1/pets/suggest", map[string]any{
					"filters": []Filter{{Attr: "kind", Values: []string{"dog"}}},
				})
				if res.StatusCode != http.StatusOK {
					t.Errorf("suggest status %d: %v", res.StatusCode, out)
					return
				}
			}
		}()
	}
	for b := 0; b < batches; b++ {
		rows := make([]any, per)
		for i := range rows {
			rows[i] = []any{"dog", "NY", float64(i % 12)}
		}
		res, out := post(t, srv, "/api/v1/pets/ingest", map[string]any{"rows": rows})
		if res.StatusCode != http.StatusOK {
			t.Fatalf("ingest batch %d: status %d: %v", b, res.StatusCode, out)
		}
	}
	close(stop)
	wg.Wait()
	waitViewRows(t, e, 150+batches*per)
}

// TestIngestSuggestReadsServingSnapshot pins the /suggest ingest
// regressions at the HTTP layer. Rows land in the table without a view
// refresh — a new dictionary value, a new city, null ages — so the
// serving view lags the table. Completion (with a numeric conjunct),
// unfiltered drill-down and filtered drill-down must all answer 200
// with counts equal to a brute-force scan of the serving view's rows.
func TestIngestSuggestReadsServingSnapshot(t *testing.T) {
	_, e, srv := newIngestServer(t, 200)
	suggest := func(body map[string]any) map[string]json.RawMessage {
		t.Helper()
		res, out := post(t, srv, "/api/v1/pets/suggest", body)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("suggest %v: status %d: %s", body, res.StatusCode, out["error"])
		}
		return out
	}
	suggest(map[string]any{"filters": []Filter{}}) // mine the model on the current view

	v := e.snapshot()
	tbl := v.Table()
	for i := 0; i < 40; i++ {
		tbl.MustAppendRow("fish", "SF", math.NaN())
		tbl.MustAppendRow("cat", "LA", float64(i%15))
	}
	tbl.Index()
	if cur := e.snapshot(); cur != v {
		t.Fatal("serving view refreshed without an ingest")
	}

	// count brute-forces the serving view's rows: kind/city compare
	// dictionary values, age its histogram bin label; only is an extra
	// row predicate.
	count := func(filters []Filter, attr, value string, only func(r int) bool) int {
		match := func(r int, attr, value string) bool {
			col, err := v.Column(attr)
			if err != nil {
				t.Fatal(err)
			}
			if col.Kind == dataset.Categorical {
				return tbl.Cat(col.Col).Value(r) == value
			}
			x := tbl.Num(col.Col).Value(r)
			return !math.IsNaN(x) && col.Label(col.Histogram().Bin(x)) == value
		}
		if attr != "" {
			filters = append(filters[:len(filters):len(filters)], Filter{Attr: attr, Values: []string{value}})
		}
		n := 0
	rows:
		for r := 0; r < v.Rows(); r++ {
			for _, f := range filters {
				if !slices.ContainsFunc(f.Values, func(val string) bool { return match(r, f.Attr, val) }) {
					continue rows
				}
			}
			if only == nil || only(r) {
				n++
			}
		}
		return n
	}
	ageAtLeast5 := func(r int) bool { return tbl.Num(2).Value(r) >= 5 }

	for stmt, only := range map[string]func(int) bool{
		"SELECT * FROM pets WHERE kind = ":               nil,
		"SELECT * FROM pets WHERE age >= 5 AND kind = ":  ageAtLeast5,
		"SELECT * FROM pets WHERE age >= 5 AND city != ": ageAtLeast5,
	} {
		var c suggestCompletion
		mustUnmarshal(t, suggest(map[string]any{"statement": stmt, "limit": 100})["completion"], &c)
		for _, cand := range c.Candidates {
			if cand.Category != "value" {
				continue
			}
			if want := count(nil, cand.Attr, cand.Text, only); cand.Count != want {
				t.Errorf("%q: %s count = %d, serving view holds %d", stmt, cand.Text, cand.Count, want)
			}
		}
	}
	for _, filters := range [][]Filter{{}, {{Attr: "kind", Values: []string{"cat"}}}, {{Attr: "city", Values: []string{"NY"}}}} {
		var d suggestDrilldown
		mustUnmarshal(t, suggest(map[string]any{"filters": filters, "maxValues": 100, "includeDeadEnds": true})["drilldown"], &d)
		if want := count(filters, "", "", nil); d.Total != want {
			t.Errorf("drill %v: total = %d, serving view holds %d", filters, d.Total, want)
		}
		for _, a := range d.Attrs {
			for _, val := range a.Values {
				if want := count(filters, a.Attr, val.Value, nil); val.Count != want {
					t.Errorf("drill %v: %s=%s count = %d, serving view holds %d", filters, a.Attr, val.Value, val.Count, want)
				}
			}
		}
	}
}

func mustUnmarshal(t *testing.T, raw json.RawMessage, into any) {
	t.Helper()
	if raw == nil {
		t.Fatal("missing response field")
	}
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
}

// TestIngestBodyMatchesEncodingJSON pins the appended /ingest body to
// the map it was before, encoded by json.Encoder; the digest goes
// through refDigest (encode_test.go).
func TestIngestBodyMatchesEncodingJSON(t *testing.T) {
	_, e, srv := newIngestServer(t, 60)
	v := e.snapshot()
	_, raw := rawPost(t, srv, "/api/v1/pets/ingest", map[string]any{
		"rows": []any{[]any{"cat", "SF", 3.5}, []any{"<fish & \"eel\">", "NY", nil}},
	})
	tbl := v.Table()
	dig := facet.NewSessionBitmap(v, dataset.FullBitmap(v.Rows())).Digest()
	dig = facet.ExtendDigest(v, dig, v.Rows(), tbl.NumRows())
	want := refEncode(t, map[string]any{
		"dataset":  "pets",
		"appended": 2,
		"rows":     tbl.NumRows(),
		"epoch":    tbl.Epoch(),
		"stale":    tbl.NumRows() - v.Rows(),
		"digest":   refDigest{dig.Attrs},
	})
	sameBytes(t, "/ingest", raw, want)
}
