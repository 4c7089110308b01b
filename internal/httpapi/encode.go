package httpapi

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"dbexplorer/internal/core"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/jsonw"
)

// The bodies of the hot routes (/cad, /query, /reorder, /ingest) are
// appended into one buffer per response, with no reflection and no
// second pass over the view's bytes. They are the bytes encoding/json
// wrote for the maps these bodies used to be: keys in byte order, Go
// field names for untagged structs, nil slices as null, HTML escaping
// on and a trailing newline, as json.Encoder.Encode writes. The buffers
// are not pooled: a pooled buffer of a large view would outlive the
// response.

// writeBody sends an encoded JSON body with its Content-Length, in one
// write.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// writeJSON encodes v with encoding/json and sends it; the small routes
// and error envelopes use it. v is encoded before the status goes out,
// so a value with no JSON form (a NaN, say) is answered with a 500
// internal envelope instead of a 200 with a broken body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeAPIError(w, errInternal())
		return
	}
	writeBody(w, status, append(body, '\n'))
}

// appendCAD appends the /cad response body for the build bv served under
// id. stale is the JSON value of the "stale" field, left out when empty;
// shed adds "shed":true, the mark of an answer given while the admission
// gate shed the request.
func appendCAD(b []byte, id string, bv *builtView, cached bool, stale string, shed bool) ([]byte, error) {
	b = append(b, `{"buildMs":`...)
	b = appendMs(b, bv.tm.Total())
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, cached)
	b = append(b, `,"id":`...)
	b = jsonw.String(b, id)
	if shed {
		b = append(b, `,"shed":true`...)
	}
	if stale != "" {
		b = append(b, `,"stale":`...)
		b = append(b, stale...)
	}
	b = append(b, `,"text":`...)
	b = jsonw.String(b, bv.text)
	b = append(b, `,"timings":`...)
	b = appendTimings(b, bv.tm)
	b = append(b, `,"view":`...)
	b, err := bv.view.AppendJSON(b, id)
	if err != nil {
		return nil, err
	}
	return append(b, "}\n"...), nil
}

// appendTimings appends a build's stage times in milliseconds, keyed
// <stage>Ms, plus the Lloyd phases of the cluster stage keyed
// cluster_<phase>Ms (their sum plus the encoding time is clusterMs).
func appendTimings(b []byte, tm core.Timings) []byte {
	type timing struct {
		key string
		d   time.Duration
	}
	var ts []timing
	for _, st := range tm.Stages() {
		ts = append(ts, timing{st.Name + "Ms", st.D})
	}
	for _, st := range tm.ClusterDetail.Stages() {
		ts = append(ts, timing{"cluster_" + st.Name + "Ms", st.D})
	}
	slices.SortFunc(ts, func(x, y timing) int { return strings.Compare(x.key, y.key) })
	b = append(b, '{')
	for i, t := range ts {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonw.String(b, t.key)
		b = append(b, ':')
		b = appendMs(b, t.d)
	}
	return append(b, '}')
}

// appendMs appends d in milliseconds at microsecond resolution.
func appendMs(b []byte, d time.Duration) []byte {
	b, _ = jsonw.Float(b, float64(d.Microseconds())/1e3) // finite, so no error
	return b
}

// pageColumn is one key of a page row: an attribute and its column, or
// "_row", the row id, when both columns are nil.
type pageColumn struct {
	name string
	cat  *dataset.CatColumn
	num  *dataset.NumColumn
}

// appendRows appends one page of table rows as a JSON array of objects
// keyed by attribute name, plus "_row" for the row id. Keys are in byte
// order, so "_row" falls after upper-case names and before lower-case
// ones. NaN (a missing numeric cell) is written as null; an infinite
// cell has no JSON form and is an error.
func appendRows(b []byte, t *dataset.Table, rows dataset.RowSet) ([]byte, error) {
	schema := t.Schema()
	// Listed last column first, so that after the stable sort Compact
	// keeps what a map keeps of a repeated name: the value written last
	// (an attribute named "_row" replaces the row id).
	cols := make([]pageColumn, 0, len(schema)+1)
	for col := len(schema) - 1; col >= 0; col-- {
		cols = append(cols, pageColumn{name: schema[col].Name, cat: t.Cat(col), num: t.Num(col)})
	}
	cols = append(cols, pageColumn{name: "_row"})
	slices.SortStableFunc(cols, func(x, y pageColumn) int { return strings.Compare(x.name, y.name) })
	cols = slices.CompactFunc(cols, func(x, y pageColumn) bool { return x.name == y.name })
	// Each key's `{"name":` or `,"name":`, encoded once per page.
	keys := make([][]byte, len(cols))
	for i, c := range cols {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		keys[i] = append(jsonw.String([]byte{sep}, c.name), ':')
	}

	b = append(b, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		for j, c := range cols {
			b = append(b, keys[j]...)
			switch {
			case c.cat != nil:
				b = jsonw.String(b, c.cat.Value(row))
			case c.num != nil:
				v := c.num.Value(row)
				if math.IsNaN(v) {
					b = append(b, "null"...)
					continue
				}
				var err error
				if b, err = jsonw.Float(b, v); err != nil {
					return nil, err
				}
			default:
				b = strconv.AppendInt(b, int64(row), 10)
			}
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// appendSimilarities appends REORDER's per-row distances as encoding/json
// writes []core.RowSimilarity: Go field names as keys, nil as null.
func appendSimilarities(b []byte, sims []core.RowSimilarity) ([]byte, error) {
	if sims == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, rs := range sims {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"PivotValue":`...)
		b = jsonw.String(b, rs.PivotValue)
		b = append(b, `,"Distance":`...)
		var err error
		if b, err = jsonw.Float(b, rs.Distance); err != nil {
			return nil, err
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}
