// Command loadgen is DBExplorer's end-to-end benchmark. It starts the
// production HTTP server in-process with cmd/serve's defaults behind a
// loopback listener, generates a fixture from the seed, and replays
// seeded exploration sessions over at most two keep-alive connections:
// closed-loop readers and, on ingest-mix, an open-loop writer. Every
// response is checked against a plain-scan oracle. It prints each metric
// by name, unit and sample count, and as its last line one JSON object
// with the metrics BENCHMARK.json declares.
//
// With --trace 1 it instead replays the first reader's sessions one
// operation at a time: each goes once over HTTP to a server whose
// handler is timed, and once through direct calls into each layer on a
// twin fixture built from the same seed. The last line then carries the
// per-layer metrics.
//
// Usage, from the repository root:
//
//	bash cmd/loadgen/run.sh --workload cad-cold --seed 1 --seconds 20 --trace 0
//	bash cmd/loadgen/run.sh --trace 1            # every workload, traced
//
// It exits non-zero when any response fails its checks.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/httpapi"
)

// spec is one metric BENCHMARK.json declares.
type spec struct{ name, unit string }

// endToEnd are the metrics an untraced run's result line carries: what
// a user of the server sees, on every workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"route_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics a traced run's result line carries.
func perLayer() []spec {
	out := []spec{
		{"httpapi.handler_ms", "ms"},
		{"net.transport_ms", "ms"},
		{"httpapi.encode_ms", "ms"},
		{"httpapi.resp_kb", "KB"},
		{"facet.session_ms", "ms"},
		{"setup.view_ms", "ms"},
		{"setup.postings_ms", "ms"},
		{"suggest.model_ms", "ms"},
		{"dataset.posting_mb", "MB"},
		{"viewcache.hit_rate", "frac"},
		{"viewcache.coalesced", "count"},
		{"viewcache.stale_served", "count"},
		{"viewcache.stale_refreshes", "count"},
		{"suggest.model_builds", "count"},
		{"dataview.refreshes", "count"},
		{"dataset.index_builds", "count"},
		{"dataset.index_extends", "count"},
	}
	for _, l := range requestLayers {
		out = append(out, spec{l + "_frac", "frac"})
	}
	return append(out, spec{"unattributed_frac", "frac"})
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rows     int    // fixture rows; 0 = the workload's fixture size (tests shrink it)
	out      string // JSON-lines file every metric is appended to
}

// traceFlag takes an explicit value (--trace 1, --trace 0): as a plain
// bool flag, "--trace 0" would parse as --trace plus a stray argument.
type traceFlag bool

func (t *traceFlag) String() string { return strconv.FormatBool(bool(*t)) }

func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*t = traceFlag(v)
	return err
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var c config
	var trace traceFlag
	fs.StringVar(&c.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&c.seed, "seed", 1, "seed for the fixture and the sessions")
	fs.Float64Var(&c.seconds, "seconds", 20, "measured seconds per run")
	fs.Var(&trace, "trace", "1 for the traced per-layer replay, 0 for the end-to-end run")
	fs.StringVar(&c.out, "out", "", "append every metric to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	c.trace = bool(trace)
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	case c.seconds <= 0:
		return c, fmt.Errorf("--seconds must be positive")
	}
	if c.workload != "all" {
		if _, err := findWorkload(c.workload); err != nil {
			return c, err
		}
	}
	return c, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	ws := workloads()
	if cfg.workload != "all" {
		w, _ := findWorkload(cfg.workload)
		ws = []*workload{w}
	}
	ok := true
	for _, w := range ws {
		res, err := run(cfg, w)
		if err == nil {
			err = res.emit(os.Stdout, cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		ok = ok && res.failed == 0
	}
	if !ok {
		os.Exit(1)
	}
}

// result is one workload run.
type result struct {
	w         *workload
	rows      int
	attempted int
	failed    int
	problems  []string
	hash      string
	m         metrics
}

// check records a run-level check as one operation, failed if err is set.
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

func (r *result) collect(rec *recorder) {
	r.attempted += rec.attempted
	r.failed += rec.failed
	r.problems = append(r.problems, rec.problems...)
}

func run(cfg config, w *workload) (*result, error) {
	rows := cfg.rows
	if rows == 0 {
		rows = zipfRows
		if w.fixture == "cars" {
			rows = carsRows
		}
	}
	empty := heapMB()
	table := newTable(w.fixture, rows, cfg.seed)
	tableMB := heapMB() - empty
	p := &plan{w: w, seed: cfg.seed, seconds: cfg.seconds, o: newOracle(table)}
	if err := w.prepare(p); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	res := &result{w: w, rows: rows}
	if cfg.trace {
		return res, traceRun(res, p, table)
	}
	return res, loadRun(res, p, table, tableMB)
}

// setupReps is how many times a run sets the server up; setup_s is the
// median and the last server is measured.
const setupReps = 5

// warmClient is the client id of the warm-up script.
const warmClient = -1

func loadRun(res *result, p *plan, table *dataset.Table, tableMB float64) error {
	w := p.w
	// heap_mb counts the server: the fixture table and what set-up adds
	// to it. The harness's own inputs (the oracle's copy of the cells, the
	// scripts, the writer's batches) are measured here, before any server
	// exists, and left out.
	table.ResetIndex()
	p.o.forget()
	harnessMB := heapMB()
	var setups []float64
	var s *server
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		table.ResetIndex()
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = startServer(table, nil); err != nil {
			return err
		}
		if err := w.warmup(p.newClient(warmClient, s.hc, s.base)); err != nil {
			s.close()
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()
	// heap_mb is taken before traffic: afterwards it counts the views the
	// server keeps per request served, and a faster server would read as
	// a bigger one.
	p.o.forget()
	setupHeap := heapMB() - harnessMB + tableMB

	before := s.api.Metrics().Snapshot()
	readers := make([]*client, w.readers)
	start := time.Now()
	stop := start.Add(time.Duration(p.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i := range readers {
		c := p.newClient(i, s.hc, s.base)
		c.stop = stop
		readers[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.runSessions()
			c.end = time.Now()
		}()
	}
	var writer *client
	if w.writer {
		writer = p.newClient(w.readers, s.hc, s.base)
		writer.stop = stop
		wg.Add(1)
		go func() {
			defer wg.Done()
			writer.runWriter(start)
		}()
	}
	wg.Wait()
	var elapsed time.Duration
	for _, c := range readers {
		elapsed = max(elapsed, c.end.Sub(start))
	}
	endHeap := heapMB() - harnessMB + tableMB
	after := s.api.Metrics().Snapshot()

	var reads []sample
	h := sha256.New()
	for _, c := range readers {
		res.collect(c.rec)
		reads = append(reads, c.rec.samples...)
		for _, sum := range c.rec.hashes {
			h.Write(sum)
		}
	}
	res.hash = hex.EncodeToString(h.Sum(nil))

	m := &res.m
	m.add("setup_s", "s", quantile(setups, 0.5), len(setups))
	m.add("ops_per_s", "1/s", float64(len(reads))/elapsed.Seconds(), len(reads))
	m.add("route_p50_ms", "ms", routeP50(reads), len(reads))
	m.p95("op_p95_ms", msOf(reads, nil))
	m.add("heap_mb", "MB", setupHeap, 1)
	m.add("heap_end_mb", "MB", endHeap, 1)
	m.latency("query", msOf(reads, []string{"query"}))
	cadMs := msOf(reads, []string{"cad"})
	m.latency("cad", cadMs)
	m.latency("drill", msOf(reads, []string{"drill"}))
	m.dist("complete_p50_ms", "ms", msOf(reads, []string{"complete"}))
	m.dist("interact_p50_ms", "ms", msOf(reads, []string{"highlight", "reorder"}))
	stale := 0
	for _, c := range readers {
		stale += c.rec.stale
	}
	if len(cadMs) > 0 {
		m.add("stale_rate", "frac", float64(stale)/float64(len(cadMs)), len(cadMs))
	}
	cacheMetrics(m, before, after)

	if writer != nil {
		res.collect(writer.rec)
		m.latency("ingest", msOf(writer.rec.samples, nil))
		late := writer.rec.late
		if len(late) > 0 {
			p95 := quantile(late, 0.95)
			m.add("writer_late_ms", "ms", p95, len(late))
			if p95 > 50 {
				res.check(fmt.Errorf("writer ran %.1f ms late at p95 (limit 50 ms)", p95))
			}
		}
		want := p.o.rows + writer.rec.acked*batchRows
		res.check(awaitRows(s, want, 2*time.Second))
		m.add("ingest_batches", "count", float64(writer.rec.acked), len(late))
	}
	m.add("error_rate", "frac", float64(res.failed)/float64(max(res.attempted, 1)), res.attempted)
	return nil
}

// heapMB is the live heap after a collection, in MiB. HeapAlloc counts
// live objects only; HeapInuse adds the free space of partly used spans,
// which moves by several percent from run to run on the same inputs.
func heapMB() float64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

// awaitRows polls an unfiltered /query until it counts want rows: every
// acknowledged append must become visible within the limit.
func awaitRows(s *server, want int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := s.hc.Post(s.base+"query", "application/json", strings.NewReader(`{"limit":1}`))
		var r queryResp
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&r)
			resp.Body.Close()
		}
		if err != nil {
			return fmt.Errorf("visibility check: %w", err)
		}
		if r.Total == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("an unfiltered /query counts %d rows %v after the writer stopped, want %d", r.Total, limit, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// msOf returns the latencies of the samples on the given routes (all
// routes when nil).
func msOf(samples []sample, routes []string) []float64 {
	var out []float64
	for _, s := range samples {
		if routes == nil || slices.Contains(routes, s.route) {
			out = append(out, s.ms)
		}
	}
	return out
}

// cacheMetrics reports the view cache's counter deltas over a window
// (the counters /debug/metrics serves).
func cacheMetrics(m *metrics, before, after map[string]any) {
	delta := func(name string) float64 {
		a, _ := after[name].(int64)
		b, _ := before[name].(int64)
		return float64(a - b)
	}
	hits, misses, coalesced := delta("cad_cache_hits"), delta("cad_cache_misses"), delta("cad_build_coalesced")
	lookups := int(hits + misses + coalesced)
	m.add("viewcache.hit_rate", "frac", ratio(hits, hits+misses+coalesced), lookups)
	m.add("viewcache.coalesced", "count", coalesced, lookups)
	m.add("viewcache.stale_served", "count", delta("stale_served_total"), lookups)
	m.add("viewcache.stale_refreshes", "count", delta("cad_stale_refreshes_total"), lookups)
	m.add("dataview.refreshes", "count", delta("view_refreshes_total"), 0)
	builds, _ := after["suggest_model_builds_total"].(int64)
	m.add("suggest.model_builds", "count", float64(builds), 0)
}

func traceRun(res *result, p *plan, table *dataset.Table) error {
	twinTable := newTable(p.w.fixture, res.rows, p.seed)
	tw, setup, err := newTwin(twinTable)
	if err != nil {
		return fmt.Errorf("setting up the twin: %w", err)
	}
	tr := &tracer{twin: tw}
	s, err := startServer(table, tr.wrap)
	if err != nil {
		return err
	}
	defer s.close()
	tr.srv = s
	wc := p.newClient(warmClient, s.hc, s.base)
	wc.tr = tr
	if err := p.w.warmup(wc); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	before := s.api.Metrics().Snapshot()
	c := p.newClient(0, s.hc, s.base)
	c.tr = tr
	tr.recording = true
	c.stop = time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	c.runSessions()
	after := s.api.Metrics().Snapshot()
	res.collect(c.rec)

	m := &res.m
	tr.layerMetrics(m)
	for _, name := range []string{"setup.view", "setup.postings", "suggest.model"} {
		m.add(name+"_ms", "ms", ms(setup[name]), 1)
	}
	m.add("dataset.posting_mb", "MB", float64(table.Index().MemoryBytes())/(1<<20), 1)
	cacheMetrics(m, before, after)
	m.add("dataset.index_builds", "count", float64(tr.indexBuilds), 0)
	m.add("dataset.index_extends", "count", float64(tr.indexExtends), 0)
	return nil
}

// server is the production server behind a loopback listener, with the
// keep-alive client every simulated user of the run shares.
type server struct {
	api  *httpapi.Server
	http *http.Server
	done chan error
	base string
	hc   *http.Client
}

// startServer registers the table with cmd/serve's defaults (seed 1,
// 128-view cache, 30 s timeout, default admission gate and queue),
// warms the suggestion models, and serves on 127.0.0.1:0.
func startServer(t *dataset.Table, wrap func(http.Handler) http.Handler) (*server, error) {
	api := httpapi.NewServer(
		httpapi.WithSeed(serverSeed),
		httpapi.WithCacheSize(httpapi.DefaultCacheSize),
		httpapi.WithRequestTimeout(httpapi.DefaultRequestTimeout),
		httpapi.WithMaxConcurrent(0),
		httpapi.WithMaxIngestBatch(httpapi.DefaultMaxIngestBatch),
	)
	v, err := dataview.New(t, dataview.Options{})
	if err != nil {
		return nil, err
	}
	if err := api.Register(t.Name(), v); err != nil {
		return nil, err
	}
	if err := api.WarmSuggest(context.Background()); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := api.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	// At most runtime.NumCPU connections: the readers and the writer
	// each hold one.
	conns := runtime.NumCPU()
	s := &server{
		api:  api,
		http: &http.Server{Handler: h},
		done: make(chan error, 1),
		base: fmt.Sprintf("http://%s/api/v1/%s/", ln.Addr(), t.Name()),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for in-flight requests and the serve
// loop, and drains the admission gate.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hc.CloseIdleConnections()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if derr := s.api.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

func (p *plan) newClient(id int, hc *http.Client, base string) *client {
	rng := p.rng(int64(1000 + id))
	return &client{id: id, p: p, hc: hc, base: base, rng: rng, offset: rng.Intn(6), rec: &recorder{}}
}

// emit prints the report, appends to --out, and prints the result line.
func (r *result) emit(w io.Writer, cfg config) error {
	mode := "end-to-end"
	specs := endToEnd
	if cfg.trace {
		mode, specs = "traced", perLayer()
	}
	fmt.Fprintf(w, "loadgen %s %s: seed %d, %g s, %s fixture %d rows; %d CPUs, GOMAXPROCS %d, %s\n",
		r.w.name, mode, cfg.seed, cfg.seconds, r.w.fixture, r.rows, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, mt := range r.m.list {
		fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d", mt.Name, mt.Value, mt.Unit, mt.Samples)
		if strings.HasSuffix(mt.Name, "_p95_ms") {
			fmt.Fprintf(w, ", %d above", mt.Above)
			if mt.Above < 10 {
				fmt.Fprint(w, " (too few for a p95)")
			}
		}
		fmt.Fprintln(w)
	}
	if r.hash != "" {
		fmt.Fprintf(w, "  %-36s %s\n", "outputs_sha256", r.hash)
	}
	fmt.Fprintf(w, "  checks: %d of %d operations failed\n", r.failed, r.attempted)
	for _, pr := range r.problems {
		fmt.Fprintf(w, "    %s\n", pr)
	}
	if cfg.out != "" {
		if err := r.appendOut(cfg.out); err != nil {
			return err
		}
	}

	out := map[string]any{}
	for _, s := range specs {
		mt, ok := r.m.get(s.name)
		if !ok || mt.Unit != s.unit {
			return fmt.Errorf("declared metric %s (%s) was not measured", s.name, s.unit)
		}
		out[s.name] = map[string]any{"value": mt.Value, "unit": mt.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func (r *result) appendOut(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, mt := range r.m.list {
		if err := enc.Encode(map[string]any{
			"workload": r.w.name, "metric": mt.Name, "unit": mt.Unit, "value": mt.Value, "samples": mt.Samples,
		}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
