package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"dbexplorer/internal/datagen"
)

// workload is one traffic mix: a fixture, a number of closed-loop
// reader clients, an optional open-loop ingest writer, a warm-up script
// that runs during set-up, and the session every reader repeats.
type workload struct {
	name    string
	why     string
	fixture string // "zipf" or "cars"
	readers int
	writer  bool
	prepare func(p *plan) error
	warmup  func(c *client) error
	session func(c *client) error
}

func workloads() []*workload {
	return []*workload{
		{
			name:    "cad-cold",
			why:     "every /cad has a new fingerprint, so core, featsel, cluster and topk do the work and the view cache none",
			fixture: "zipf", readers: 2,
			prepare: prepareCADCold, warmup: warmCADCold, session: cadColdSession,
		},
		{
			name:    "facet-drill",
			why:     "facet selection, digests and /suggest drill-down ranking on 1M rows, with no CAD View build",
			fixture: "zipf", readers: 2,
			prepare: func(*plan) error { return nil }, warmup: facetDrillSession, session: facetDrillSession,
		},
		{
			name:    "session-mix",
			why:     "whole sessions on the paper's 40K cars whose /cad requests hit the view cache: encoding, highlight, reorder, completion",
			fixture: "cars", readers: 2,
			prepare: prepareSessionMix, warmup: warmSessionMix, session: sessionMixSession,
		},
		{
			name:    "ingest-mix",
			why:     "a reader's /query drill-downs and /cad beside an open-loop writer: appends, view refreshes and stale CAD Views",
			fixture: "zipf", readers: 1, writer: true,
			prepare: prepareIngestMix, warmup: warmIngestMix, session: ingestMixSession,
		},
	}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// plan holds one run's generated inputs. It is built before set-up and
// read-only afterwards.
type plan struct {
	w       *workload
	seed    int64
	seconds float64
	o       *oracle

	cadScripts [][]cadReq // cad-cold: one list per reader, then the warm-up list
	cadPool    []cadReq   // ingest-mix: /cad keys the reader draws from
	pool       [][]filter // session-mix: filter sets sessions draw from
	batches    []batch    // ingest-mix: writer batches, in send order
}

// Writer model: 1000-row batches, five per second.
const (
	batchRows     = 1000
	batchInterval = 200 // ms
)

// batch is one /ingest request: the JSON body the server gets and the
// same rows in AppendBatch form for the traced replay's twin fixture.
type batch struct {
	body []byte
	rows [][]any
}

func (p *plan) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(p.seed*1_000_003 + stream))
}

// zipfShares returns the expected share of rows carrying each code of a
// zipf fixture column.
func zipfShares() []float64 {
	shares := make([]float64, zipfCard)
	h := 0.0
	for k := range shares {
		shares[k] = math.Pow(float64(k+1), -zipfS)
		h += shares[k]
	}
	for k := range shares {
		shares[k] /= h
	}
	return shares
}

// headValues returns the n most frequent values of a zipf column.
func headValues(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("v%04d", i)
	}
	return out
}

// cadLevel is the expected selectivity of cold /cad request i: eight
// steps, evenly spaced in log scale over 2-8% of rows. With K cycling
// over 3..6 on top, every 32 consecutive requests have the same cost
// profile whatever the seed, so runs of different seeds differ in which
// rows they touch, not in how much work they ask for. A wider band
// (1.5-28%) made single builds differ 20-fold in cost, and the latency
// metrics' run-to-run spread with it.
func cadLevel(i int) float64 {
	return 0.02 * math.Pow(4, float64(i%8)/7)
}

// cadRequests draws n cold /cad requests on the zipf fixture: pivot c0
// over its six head values, maxCompare 4, and one or two filters on
// c1..c4 whose expected selectivity is within 10% of request i's level.
// seen holds the keys already drawn, so no fingerprint repeats across
// calls that share it.
func cadRequests(rng *rand.Rand, o *oracle, n int, seen map[string]bool) []cadReq {
	shares := zipfShares()
	var out []cadReq
	for len(out) < n {
		level, k := cadLevel(len(out)), 3+(len(out)/8)%4
		nf := 1 + rng.Intn(2)
		sel := 1.0
		fs := make([]filter, 0, nf)
		for _, a := range rng.Perm(4)[:nf] {
			attr := zipfAttrs[1+a]
			share := 0.0
			var vals []string
			for _, code := range rng.Perm(40)[:1+rng.Intn(3)] {
				if v := fmt.Sprintf("v%04d", code); o.hasValue(attr, v) {
					share += shares[code]
					vals = append(vals, v)
				}
			}
			sel *= share
			fs = append(fs, filter{Attr: attr, Values: vals})
		}
		key := fmt.Sprintf("%s/%d", filterKey(fs), k)
		if sel < level/1.1 || sel > level*1.1 || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, cadReq{Filters: fs, Pivot: "c0", PivotValues: headValues(6), K: k, MaxCompare: 4})
	}
	return out
}

func (o *oracle) hasValue(attr, v string) bool {
	_, ok := o.codes[o.pos[attr]][v]
	return ok
}

// cadColdScript bounds the /cad requests one reader can issue in a run;
// at ~25 builds per second across both readers it is never reached.
const cadColdScript = 1000

func prepareCADCold(p *plan) error {
	seen := map[string]bool{}
	for c := 0; c <= p.w.readers; c++ {
		n := cadColdScript
		if c == p.w.readers {
			n = 4 // warm-up
		}
		p.cadScripts = append(p.cadScripts, cadRequests(p.rng(int64(c)), p.o, n, seen))
	}
	return nil
}

func warmCADCold(c *client) error {
	for _, req := range c.p.cadScripts[c.p.w.readers] {
		if _, err := c.cad(req); err != nil {
			return err
		}
	}
	return nil
}

func cadColdSession(c *client) error {
	script := c.p.cadScripts[c.id]
	if c.next >= len(script) {
		return fmt.Errorf("cad-cold: script of %d requests exhausted", len(script))
	}
	c.next++
	_, err := c.cad(script[c.next-1])
	return err
}

// choice picks one of n ranked candidates at one step of a session. Over
// every six sessions of a client, each step takes the first candidate
// three times, the second twice and the third once, starting from the
// client's seeded offset. A balanced design rather than independent
// draws keeps the cost mix of a run the same from seed to seed; the data
// still decides what the candidates are.
func (c *client) choice(step, n int) int {
	return [6]int{0, 1, 0, 2, 0, 1}[(c.sessions+c.offset+step)%6] % n
}

// facetDrillSession is one exploration: an unfiltered /query, then up to
// four rounds of /suggest drill-down, each followed by a /query with the
// chosen value added (page 2 every third round). The chosen value is the
// top live value of one of the first three categorical suggestions.
func facetDrillSession(c *client) error {
	if _, err := c.query(queryReq{}); err != nil {
		return err
	}
	var fs []filter
	for round := 1; round <= 4; round++ {
		d, err := c.drill(fs)
		if err != nil {
			return err
		}
		var cands []filter
		for _, a := range d.Drilldown.Attrs {
			if c.p.o.categorical(a.Attr) && len(a.Values) > 0 && len(cands) < 3 {
				cands = append(cands, filter{Attr: a.Attr, Values: []string{a.Values[0].Value}})
			}
		}
		if len(cands) == 0 {
			return nil
		}
		fs = append(fs, cands[c.choice(round, len(cands))])
		q := queryReq{Filters: fs}
		if round%3 == 0 {
			q.Offset = defaultPageLimit
		}
		if _, err := c.query(q); err != nil {
			return err
		}
	}
	return nil
}

// Session-mix draws filter sets Zipf-skewed from a pool smaller than
// the server's 128-entry view cache, so after warm-up every /cad hits.
const (
	poolSize = 40
	poolS    = 1.1
)

var carsFilterAttrs = []string{"BodyType", "Drivetrain", "Transmission", "Color"}

// poolShare is the share of rows pool entry r keeps: 5-50%, evenly
// spaced in log scale and dealt out to ranks in a fixed scattered order,
// so the Zipf head of every seed's pool has the same size profile.
func poolShare(r int) float64 {
	return 0.05 * math.Pow(10, float64(r*17%poolSize)/(poolSize-1))
}

// prepareSessionMix draws the pool: entry r is one or two filters on
// BodyType, Drivetrain, Transmission or Color whose result is within 10%
// of poolShare(r) of the rows, the tolerance widening 10% per 500
// candidates where no such filter set turns up.
func prepareSessionMix(p *plan) error {
	rng := p.rng(0)
	seen := map[string]bool{}
	for tries := 0; len(p.pool) < poolSize; tries++ {
		want := poolShare(len(p.pool)) * float64(p.o.rows)
		tol := math.Pow(1.1, float64(1+tries/500))
		nf := 1 + rng.Intn(2)
		var fs []filter
		for _, a := range rng.Perm(len(carsFilterAttrs))[:nf] {
			attr := carsFilterAttrs[a]
			dict := p.o.dict[p.o.pos[attr]]
			vals := []string{dict[rng.Intn(len(dict))]}
			if rng.Intn(2) == 0 {
				if v := dict[rng.Intn(len(dict))]; v != vals[0] {
					vals = append(vals, v)
				}
			}
			fs = append(fs, filter{Attr: attr, Values: vals})
		}
		t, err := p.o.tally(fs, p.o.rows)
		if err != nil {
			return err
		}
		size := float64(t.total)
		if key := filterKey(fs); size >= want/tol && size <= want*tol && !seen[key] {
			seen[key] = true
			p.pool = append(p.pool, fs)
			tries = -1
		}
	}
	return nil
}

func carsCAD(fs []filter) cadReq {
	return cadReq{Filters: fs, Pivot: "Make", PivotValues: datagen.FeaturedMakes, K: 3, MaxCompare: 4}
}

// completions are the partial CADQL statements session-mix completes,
// each with the equality prefix its value candidates are counted under.
var completions = []struct {
	stmt   string
	prefix []filter
}{
	{"SELECT * FROM UsedCars WHERE Make = ", nil},
	{"SELECT * FROM UsedCars WHERE BodyType = ", nil},
	{"SELECT * FROM UsedCars WHERE Color = ", nil},
	{"SELECT * FROM UsedCars WHERE Price < ", nil},
	{"SELECT * FROM UsedCars WHERE Make = Ford AND Model = ", []filter{{Attr: "Make", Values: []string{"Ford"}}}},
	{"SELECT * FROM UsedCars WHERE Make = Toyota AND BodyType = ", []filter{{Attr: "Make", Values: []string{"Toyota"}}}},
}

func warmSessionMix(c *client) error {
	for _, fs := range c.p.pool {
		if _, err := c.cad(carsCAD(fs)); err != nil {
			return err
		}
	}
	return sessionMixSession(c)
}

// sessionMixSession is /query -> /cad (pivot Make over the five featured
// makes) -> /highlight -> /reorder -> /suggest completion -> /suggest
// drill-down, all on one filter set from the pool.
func sessionMixSession(c *client) error {
	if c.pick == nil {
		c.pick = datagen.NewZipf(c.rng, poolS, len(c.p.pool))
	}
	fs := c.p.pool[c.pick.Next()]
	if _, err := c.query(queryReq{Filters: fs}); err != nil {
		return err
	}
	v, err := c.cad(carsCAD(fs))
	if err != nil {
		return err
	}
	pv := ""
	for _, row := range v.View.Rows {
		if len(row.IUnits) > 0 {
			pv = row.Value
			break
		}
	}
	if pv == "" {
		return fmt.Errorf("session-mix: CAD View for %s has no IUnits", filterKey(fs))
	}
	if err := c.highlight(v, highlightReq{ID: v.ID, PivotValue: pv, Rank: 1}); err != nil {
		return err
	}
	if err := c.reorder(v, reorderReq{ID: v.ID, PivotValue: pv}); err != nil {
		return err
	}
	comp := completions[(c.sessions+c.offset)%len(completions)]
	if err := c.complete(comp.stmt, comp.prefix); err != nil {
		return err
	}
	_, err = c.drill(fs)
	return err
}

// Ingest-mix: the reader's /cad requests come from a pool of 20 keys,
// built during warm-up, so they turn stale as the writer appends.
const cadPoolSize = 20

func prepareIngestMix(p *plan) error {
	p.cadPool = cadRequests(p.rng(0), p.o, cadPoolSize, map[string]bool{})
	return p.writerBatches()
}

// writerBatches generates the writer's input, following a batched
// random-row loop: c0..c4 from the fixture's own Zipf samplers, score
// from a normal distribution (mean 500, sd 150, clipped to [0,1000)) --
// a drift away from the fixture's uniform scores -- with 2% of score
// cells null. The oracle learns every row before the window starts.
//
// Categorical draws are limited to values the fixture already holds: a
// value new to the dictionary makes /suggest drill-down index the
// serving view's labels with the grown table's codes and answer 500
// until the view refreshes, and the workloads must run without errors.
func (p *plan) writerBatches() error {
	rng := p.rng(99)
	samplers := make([]*datagen.Zipf, len(zipfAttrs))
	for i := range samplers {
		samplers[i] = datagen.NewZipf(rng, zipfS, zipfCard)
	}
	n := int(p.seconds*1000/batchInterval) + 1
	for b := 0; b < n; b++ {
		rows := make([][]any, batchRows)
		wire := make([][]any, batchRows)
		cats := make([][]string, batchRows)
		for r := range rows {
			row := make([]any, len(zipfAttrs)+1)
			cats[r] = make([]string, len(zipfAttrs))
			for i, s := range samplers {
				v := fmt.Sprintf("v%04d", s.Next())
				for !p.o.hasValue(zipfAttrs[i], v) {
					v = fmt.Sprintf("v%04d", s.Next())
				}
				row[i], cats[r][i] = v, v
			}
			wireRow := append([]any(nil), row...)
			if rng.Float64() < 0.02 {
				row[len(zipfAttrs)], wireRow[len(zipfAttrs)] = math.NaN(), nil
			} else {
				score := math.Min(math.Max(500+150*rng.NormFloat64(), 0), math.Nextafter(1000, 0))
				row[len(zipfAttrs)], wireRow[len(zipfAttrs)] = score, score
			}
			rows[r], wire[r] = row, wireRow
		}
		body, err := json.Marshal(map[string]any{"rows": wire})
		if err != nil {
			return fmt.Errorf("encoding writer batch: %w", err)
		}
		p.batches = append(p.batches, batch{body: body, rows: rows})
		p.o.appendRows(cats)
	}
	return nil
}

func warmIngestMix(c *client) error {
	for _, req := range c.p.cadPool {
		if _, err := c.cad(req); err != nil {
			return err
		}
	}
	return digestDrill(c)
}

// ingestMixSession is a drill-down through the /query digest followed by
// one /cad, the client's next key of the pool in turn.
func ingestMixSession(c *client) error {
	if err := digestDrill(c); err != nil {
		return err
	}
	_, err := c.cad(c.p.cadPool[(c.sessions+c.offset)%len(c.p.cadPool)])
	return err
}

// digestDrill is facetDrillSession with the next filter read off the
// previous /query's digest instead of /suggest: one of the first three
// categorical attributes not yet filtered, and one of its three most
// frequent values. /suggest drill-down is left out beside the writer
// because it fails while the table is ahead of the serving view:
// filtered drill-downs on a numeric attribute panic on a bitmap universe
// mismatch.
func digestDrill(c *client) error {
	q, err := c.query(queryReq{})
	if err != nil {
		return err
	}
	var fs []filter
	filtered := map[string]bool{}
	for round := 1; round <= 4; round++ {
		var attrs []int
		for i, a := range q.Digest.Attrs {
			if c.p.o.categorical(a.Attr) && !filtered[a.Attr] && len(a.Values) > 0 && len(attrs) < 3 {
				attrs = append(attrs, i)
			}
		}
		if len(attrs) == 0 {
			return nil
		}
		a := &q.Digest.Attrs[attrs[c.choice(round, len(attrs))]]
		v := a.Values[c.choice(round+2, min(3, len(a.Values)))]
		fs = append(fs, filter{Attr: a.Attr, Values: []string{v.Value}})
		filtered[a.Attr] = true
		req := queryReq{Filters: fs}
		if round%3 == 0 {
			req.Offset = defaultPageLimit
		}
		if q, err = c.query(req); err != nil {
			return err
		}
	}
	return nil
}
