package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"dbexplorer/internal/datagen"
)

// Request bodies, as the v1 API takes them.
type queryReq struct {
	Filters []filter `json:"filters"`
	Limit   int      `json:"limit,omitempty"`
	Offset  int      `json:"offset,omitempty"`
}

type cadReq struct {
	Filters     []filter `json:"filters"`
	Pivot       string   `json:"pivot"`
	PivotValues []string `json:"pivotValues,omitempty"`
	K           int      `json:"k,omitempty"`
	MaxCompare  int      `json:"maxCompare,omitempty"`
}

type highlightReq struct {
	ID         string `json:"id"`
	PivotValue string `json:"pivotValue"`
	Rank       int    `json:"rank"`
}

type reorderReq struct {
	ID         string `json:"id"`
	PivotValue string `json:"pivotValue"`
}

type suggestReq struct {
	Statement string   `json:"statement,omitempty"`
	Filters   []filter `json:"filters,omitempty"`
}

// defaultPageLimit is the server's /query page size when none is asked.
const defaultPageLimit = 100

// hashOps is how many leading operations of each client feed
// outputs_sha256. Clients keep going past the window end until they
// have issued this many, so the digest covers the same operations on
// every run of a seed.
const hashOps = 16

// errStop ends a session when the client's window is over.
var errStop = errors.New("window over")

// client is one closed-loop simulated user (or the ingest writer). It
// sends one request at a time over the shared keep-alive transport and
// checks every response before sending the next.
type client struct {
	id   int
	p    *plan
	hc   *http.Client
	base string // .../api/v1/{dataset}/
	rng  *rand.Rand
	pick *datagen.Zipf // session-mix filter-set sampler
	next int           // cad-cold: position in this client's script
	// sessions counts the client's sessions so far and offset is its
	// seeded starting point in the balanced choices (see choice).
	sessions int
	offset   int
	stop     time.Time // zero while warming up
	end      time.Time // when the last session ended
	ops      int
	rec      *recorder
	tr       *tracer // traced replay only
}

// sample is one timed request.
type sample struct {
	route string
	ms    float64
	bytes int
}

// recorder collects one client's samples and failures.
type recorder struct {
	samples   []sample
	attempted int
	failed    int
	problems  []string
	hashes    [][]byte
	stale     int // /cad answers flagged stale
	late      []float64
	acked     int // ingest batches acknowledged
}

func (r *recorder) fail(err error) {
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, err.Error())
	}
}

func (c *client) done() bool {
	return !c.stop.IsZero() && c.ops >= hashOps && !time.Now().Before(c.stop)
}

// post sends one request and returns the body of a 200 answer. The time
// runs from send (or, for the open-loop writer, from the due time) until
// the body is fully read.
func (c *client) post(route, path string, body []byte, from time.Time) ([]byte, error) {
	if c.tr != nil {
		c.tr.beforeHTTP()
	}
	start := time.Now()
	if from.IsZero() {
		from = start
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	c.ops++
	c.rec.attempted++
	c.rec.samples = append(c.rec.samples, sample{route: route, ms: ms(end.Sub(from)), bytes: len(raw)})
	if c.tr != nil {
		c.tr.afterHTTP(route, end.Sub(start), len(raw))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", route, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %.200s", route, resp.StatusCode, raw)
	}
	return raw, nil
}

// call runs one API operation: send, replay on the twin when tracing,
// decode, check, and fold the canonical response into the output hash.
func (c *client) call(route, path string, req any, out any, direct func(*spanSet) error, check func() error) error {
	if c.done() {
		return errStop
	}
	if c.tr != nil {
		if err := c.tr.ingestDue(c); err != nil {
			return err
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("%s: encoding request: %w", route, err)
	}
	raw, err := c.post(route, path, body, time.Time{})
	if c.tr != nil {
		if terr := c.tr.direct(route, raw, direct); terr != nil && err == nil {
			err = terr
		}
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s: decoding response: %w", route, err)
	}
	if err := check(); err != nil {
		return fmt.Errorf("%s: %w", route, err)
	}
	return c.hash(raw)
}

func (c *client) query(q queryReq) (*queryResp, error) {
	var r queryResp
	err := c.call("query", "query", q, &r,
		func(sp *spanSet) error { return c.tr.twin.query(sp, q) },
		func() error { return c.p.checkQuery(q, &r) })
	return &r, err
}

func (c *client) cad(req cadReq) (*cadResp, error) {
	var r cadResp
	var builds int64
	if c.tr != nil {
		builds = c.tr.builds()
	}
	err := c.call("cad", "cad", req, &r,
		func(sp *spanSet) error { return c.tr.twin.cad(sp, req) },
		func() error {
			if r.Stale > 0 {
				c.rec.stale++
			}
			return c.p.checkCAD(req, &r)
		})
	if err == nil && c.tr != nil {
		c.tr.twin.bindID(r.ID)
		if r.Stale > 0 {
			err = c.tr.settleRebuild(builds)
		}
	}
	return &r, err
}

func (c *client) highlight(v *cadResp, req highlightReq) error {
	var r highlightResp
	return c.call("highlight", "highlight", req, &r,
		func(sp *spanSet) error { return c.tr.twin.highlight(sp, req) },
		func() error { return checkHighlight(v, req, &r) })
}

func (c *client) reorder(v *cadResp, req reorderReq) error {
	var r reorderResp
	return c.call("reorder", "reorder", req, &r,
		func(sp *spanSet) error { return c.tr.twin.reorder(sp, req) },
		func() error { return checkReorder(v, req, &r) })
}

func (c *client) complete(stmt string, prefix []filter) error {
	var r completeResp
	return c.call("complete", "suggest", suggestReq{Statement: stmt}, &r,
		func(sp *spanSet) error { return c.tr.twin.complete(sp, stmt) },
		func() error { return c.p.checkComplete(prefix, &r) })
}

func (c *client) drill(fs []filter) (*drillResp, error) {
	var r drillResp
	err := c.call("drill", "suggest", suggestReq{Filters: fs}, &r,
		func(sp *spanSet) error { return c.tr.twin.drill(sp, fs) },
		func() error { return c.p.checkDrill(fs, &r) })
	return &r, err
}

// ingest sends writer batch b, timed from its due time.
func (c *client) ingest(b int, due time.Time) error {
	raw, err := c.post("ingest", "ingest", c.p.batches[b].body, due)
	if c.tr != nil {
		if terr := c.tr.direct("ingest", raw, func(sp *spanSet) error { return c.tr.twin.ingest(sp, c.p.batches[b].rows) }); terr != nil && err == nil {
			err = terr
		}
	}
	if err != nil {
		return err
	}
	var r ingestResp
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("ingest: decoding response: %w", err)
	}
	if want := c.p.o.snaps[b+1]; r.Appended != batchRows || r.Rows != want {
		return fmt.Errorf("ingest: batch %d appended %d rows to reach %d, want %d to reach %d", b, r.Appended, r.Rows, batchRows, want)
	}
	c.rec.acked++
	if c.tr != nil {
		return c.tr.settleView(r.Rows)
	}
	return nil
}

// runWriter is the open-loop writer: batch i is due i*batchInterval
// after start, whatever happened to earlier batches. It stops at the
// window end. Lateness is how long after its due time a batch was sent.
func (c *client) runWriter(start time.Time) {
	for b := range c.p.batches {
		due := start.Add(time.Duration(b*batchInterval) * time.Millisecond)
		if !due.Before(c.stop) {
			return
		}
		time.Sleep(time.Until(due))
		c.rec.late = append(c.rec.late, ms(time.Since(due)))
		if err := c.ingest(b, due); err != nil {
			c.rec.fail(err)
		}
	}
}

// runSessions repeats the workload's session until the window is over.
// A failed request ends its session; the next session starts fresh.
func (c *client) runSessions() {
	for ; !c.done(); c.sessions++ {
		err := c.p.w.session(c)
		if err != nil && !errors.Is(err, errStop) {
			c.rec.fail(err)
			if c.rec.failed > 100 {
				return
			}
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
