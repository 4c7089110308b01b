package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
)

// Fixture shapes. zipf is the skewed table the bitmap store was tuned
// on: five categorical columns c0..c4, each Zipf(s=1.3) over 1000
// values, plus a uniform numeric "score". cars is the paper's used-car
// table restricted to its five featured makes (Fig 8).
const (
	zipfRows = 1_000_000
	zipfCard = 1000
	zipfS    = 1.3
	carsRows = 40_000
)

var zipfAttrs = []string{"c0", "c1", "c2", "c3", "c4"}

func zipfColumns() []datagen.ZipfColumn {
	cols := make([]datagen.ZipfColumn, len(zipfAttrs))
	for i, name := range zipfAttrs {
		cols[i] = datagen.ZipfColumn{Name: name, Card: zipfCard, S: zipfS}
	}
	return cols
}

// newTable generates a fixture table from the seed.
func newTable(kind string, rows int, seed int64) *dataset.Table {
	if kind == "cars" {
		return datagen.UsedCarsFeatured(rows, seed)
	}
	return datagen.ZipfTable("zipf", rows, zipfColumns(), seed)
}

// filter is one facet selection, as the API takes it: the values of one
// attribute OR together, attributes AND.
type filter struct {
	Attr   string   `json:"attr"`
	Values []string `json:"values"`
}

// filterKey is a canonical text form of a filter set: attributes and
// values sorted, so equal predicates give equal keys.
func filterKey(fs []filter) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		vals := append([]string(nil), f.Values...)
		sort.Strings(vals)
		parts[i] = f.Attr + "=" + strings.Join(vals, "|")
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}

// oracle answers counting questions by plain scans over a copy of the
// categorical cells, with a row list per value, taken from the generated
// table before any index or view exists, plus the rows the writer will
// append. It shares no code with the engine's query path (postings,
// bitmaps, facet sessions, suggest), so agreement between the two is
// evidence, not tautology.
type oracle struct {
	attrs  []string           // categorical attributes, schema order
	pos    map[string]int     // attribute -> index into attrs
	dict   [][]string         // per attribute: code -> value
	codes  []map[string]int32 // per attribute: value -> code
	cells  [][]int32          // per attribute: code of each row
	rowsOf [][][]int32        // per attribute, per code: its rows, ascending
	rows   int                // rows in the generated fixture
	// snaps are the row counts a server view can cover: the fixture,
	// then one more writer batch each. Responses are checked against the
	// snapshot they match.
	snaps []int
	all   map[int]*tally // the unfiltered tally at each snapshot

	mu   sync.Mutex
	memo map[string]*tally
}

func newOracle(t *dataset.Table) *oracle {
	o := &oracle{pos: map[string]int{}, rows: t.NumRows(), snaps: []int{t.NumRows()}, memo: map[string]*tally{}}
	for i, a := range t.Schema() {
		cat := t.Cat(i)
		if cat == nil {
			continue
		}
		o.pos[a.Name] = len(o.attrs)
		o.attrs = append(o.attrs, a.Name)
		dict := append([]string(nil), cat.Dict()...)
		codes := make(map[string]int32, len(dict))
		for c, v := range dict {
			codes[v] = int32(c)
		}
		cells := make([]int32, o.rows)
		rowsOf := make([][]int32, len(dict))
		for r := range cells {
			cells[r] = cat.Code(r)
			rowsOf[cells[r]] = append(rowsOf[cells[r]], int32(r))
		}
		o.dict = append(o.dict, dict)
		o.codes = append(o.codes, codes)
		o.cells = append(o.cells, cells)
		o.rowsOf = append(o.rowsOf, rowsOf)
	}
	o.all = map[int]*tally{o.rows: o.count(nil, o.rows)}
	return o
}

func (o *oracle) categorical(attr string) bool {
	_, ok := o.pos[attr]
	return ok
}

// appendRows adds one writer batch, given as each row's categorical
// values in o.attrs order. Call it only before the measured window.
func (o *oracle) appendRows(rows [][]string) {
	for _, row := range rows {
		for a, v := range row {
			code, ok := o.codes[a][v]
			if !ok {
				code = int32(len(o.dict[a]))
				o.dict[a] = append(o.dict[a], v)
				o.codes[a][v] = code
				o.rowsOf[a] = append(o.rowsOf[a], nil)
			}
			o.rowsOf[a][code] = append(o.rowsOf[a][code], int32(len(o.cells[a])))
			o.cells[a] = append(o.cells[a], code)
		}
	}
	// Each unfiltered tally extends the previous one by the batch.
	prev := o.all[o.snaps[len(o.snaps)-1]]
	n := len(o.cells[0])
	t := &tally{n: n, total: n, counts: make([][]int, len(o.attrs))}
	for a, counts := range prev.counts {
		t.counts[a] = make([]int, len(o.dict[a]))
		copy(t.counts[a], counts)
		for _, c := range o.cells[a][prev.n:] {
			t.counts[a][c]++
		}
	}
	o.all[n] = t
	o.snaps = append(o.snaps, n)
}

// value returns attribute attr's value at row r.
func (o *oracle) value(attr string, r int) string {
	a := o.pos[attr]
	return o.dict[a][o.cells[a][r]]
}

// pred is one compiled filter: the attribute and which codes pass.
type pred struct {
	attr int
	ok   []bool
}

func (o *oracle) compile(fs []filter) ([]pred, error) {
	ps := make([]pred, len(fs))
	for i, f := range fs {
		a, ok := o.pos[f.Attr]
		if !ok {
			return nil, fmt.Errorf("oracle: %q is not a categorical attribute", f.Attr)
		}
		ps[i] = pred{attr: a, ok: make([]bool, len(o.dict[a]))}
		for _, v := range f.Values {
			if c, ok := o.codes[a][v]; ok {
				ps[i].ok[c] = true
			}
		}
	}
	return ps, nil
}

func (o *oracle) match(ps []pred, r int) bool {
	for _, p := range ps {
		if !p.ok[o.cells[p.attr][r]] {
			return false
		}
	}
	return true
}

// tally is the result of one scan: how many of the first n rows pass a
// filter set, and per attribute how many of those carry each value.
type tally struct {
	n      int
	total  int
	counts [][]int // per attribute, per code
}

// count returns how many passing rows carry value v of attr.
func (t *tally) count(o *oracle, attr, v string) int {
	a, ok := o.pos[attr]
	if !ok {
		return -1
	}
	c, ok := o.codes[a][v]
	if !ok {
		return 0
	}
	return t.counts[a][c]
}

// each calls f for each of the first n rows that passes ps. It walks
// only the rows that carry a passing value of the most selective filter.
func (o *oracle) each(ps []pred, n int, f func(r int)) {
	if len(ps) == 0 {
		for r := 0; r < n; r++ {
			f(r)
		}
		return
	}
	best, bestRows := 0, -1
	for i, p := range ps {
		rows := 0
		for c, ok := range p.ok {
			if ok {
				rows += len(o.rowsOf[p.attr][c])
			}
		}
		if bestRows < 0 || rows < bestRows {
			best, bestRows = i, rows
		}
	}
	p := ps[best]
	for c, ok := range p.ok {
		if !ok {
			continue
		}
		for _, r := range o.rowsOf[p.attr][c] {
			if int(r) >= n {
				break
			}
			if o.match(ps, int(r)) {
				f(int(r))
			}
		}
	}
}

// tally counts the first n rows under fs. Results are memoized, since
// sessions revisit the same filter sets.
func (o *oracle) tally(fs []filter, n int) (*tally, error) {
	if t, ok := o.all[n]; ok && len(fs) == 0 {
		return t, nil
	}
	key := fmt.Sprintf("%s#%d", filterKey(fs), n)
	if t := o.recall(key); t != nil {
		return t, nil
	}
	ps, err := o.compile(fs)
	if err != nil {
		return nil, err
	}
	t := o.count(ps, n)
	o.remember(key, t)
	return t, nil
}

// count tallies the first n rows that pass ps.
func (o *oracle) count(ps []pred, n int) *tally {
	t := &tally{n: n, counts: make([][]int, len(o.attrs))}
	for a := range o.attrs {
		t.counts[a] = make([]int, len(o.dict[a]))
	}
	o.each(ps, n, func(r int) {
		t.total++
		for a, cells := range o.cells {
			t.counts[a][cells[r]]++
		}
	})
	return t
}

func (o *oracle) recall(key string) *tally {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.memo[key]
}

func (o *oracle) remember(key string, t *tally) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.memo) >= 512 {
		o.memo = map[string]*tally{}
	}
	o.memo[key] = t
}

// forget drops the memoized tallies, so the oracle's memory is the same
// whenever the server's heap is read.
func (o *oracle) forget() {
	o.mu.Lock()
	o.memo = map[string]*tally{}
	o.mu.Unlock()
}

// snapTally returns the tally at the first snapshot under which exactly
// total rows pass fs. One pass counts the passing rows each snapshot
// adds; only the matching snapshot is tallied in full.
func (o *oracle) snapTally(fs []filter, total int) (*tally, error) {
	if len(fs) == 0 {
		if t, ok := o.all[total]; ok {
			return t, nil
		}
	}
	key := fmt.Sprintf("%s=%d", filterKey(fs), total)
	if t := o.recall(key); t != nil {
		return t, nil
	}
	ps, err := o.compile(fs)
	if err != nil {
		return nil, err
	}
	last := len(o.snaps) - 1
	added := make([]int, len(o.snaps))
	o.each(ps, o.snaps[last], func(r int) {
		if last == 0 {
			added[0]++
		} else {
			added[sort.SearchInts(o.snaps, r+1)]++
		}
	})
	count := 0
	for i, n := range o.snaps {
		if count += added[i]; count == total {
			t, err := o.tally(fs, n)
			if err == nil {
				o.remember(key, t)
			}
			return t, err
		}
	}
	return nil, fmt.Errorf("total %d matches no snapshot (oracle: %d at %d rows)", total, added[0], o.snaps[0])
}
