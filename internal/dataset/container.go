package dataset

import (
	"math/bits"
	"sort"
)

// Hybrid posting containers: every Bitmap partitions its universe into
// 64K-row chunks and stores each chunk in whichever of three
// representations fits its population (roaring-style):
//
//   - array:  sorted []uint16 of the member offsets — sparse chunks.
//     Intersections gallop through the longer side, so a
//     0.1%-selectivity posting costs its own cardinality, not the
//     chunk width.
//   - bitmap: 1024 packed uint64 words — dense chunks; set algebra runs
//     word-wise exactly as the old dense representation did.
//   - run:    sorted inclusive [start, last] intervals — chunks whose
//     members cluster (full chunks, complements of sparse sets,
//     postings of sorted or segmented data).
//
// Containers promote and demote automatically: Add grows an array past
// arrayMaxCard into a bitmap (or converts early when the insertion
// pattern is random), set-operation results demote to the array form
// when their cardinality allows it, and optimize — run on Freeze —
// picks the cheapest of the three forms per chunk. All operations keep
// the same canonical set semantics as the dense words, which is what
// the property harness pins: for every op, hybrid output == dense
// reference output, bit for bit.
const (
	chunkBits = 16
	chunkSize = 1 << chunkBits // rows per container
	chunkMask = chunkSize - 1

	// arrayMaxCard is the array→bitmap promotion threshold: past this
	// cardinality the sorted array (2 bytes/row) costs more than the
	// packed words (8 KB flat), matching the roaring format's constant.
	arrayMaxCard = 4096

	// insertPromote bounds the memmove cost of out-of-order Add into an
	// array: once a chunk under random insertion reaches this size it
	// converts to a bitmap, whose Add is O(1). In-order builders
	// (posting construction scans rows ascending) never hit this path.
	insertPromote = 256

	// gallopRatio is the length imbalance at which array∩array switches
	// from the linear merge to galloping (exponential search) through
	// the longer side.
	gallopRatio = 32

	bitmapWords = chunkSize / 64
)

// ckind tags a container's representation.
type ckind uint8

const (
	arrayK  ckind = iota // sorted []uint16; the zero container is an empty array
	bitmapK              // 1024 packed words
	runK                 // sorted inclusive intervals
)

// interval is one inclusive run [start, last].
type interval struct{ start, last uint16 }

// container is one 64K-row chunk of a Bitmap. Exactly one of the three
// payload slices is non-nil (none for the empty array); card caches the
// population so Len over a Bitmap is O(chunks).
type container struct {
	kind  ckind
	card  int32
	array []uint16
	words []uint64
	runs  []interval
}

// --- construction and conversion ---------------------------------------

func (c *container) clone() container {
	out := container{kind: c.kind, card: c.card}
	switch c.kind {
	case arrayK:
		if len(c.array) > 0 {
			out.array = append([]uint16(nil), c.array...)
		}
	case bitmapK:
		out.words = append([]uint64(nil), c.words...)
	case runK:
		out.runs = append([]interval(nil), c.runs...)
	}
	return out
}

// fullContainer returns the run container holding [0, lim).
func fullContainer(lim int) container {
	if lim <= 0 {
		return container{}
	}
	return container{kind: runK, card: int32(lim), runs: []interval{{0, uint16(lim - 1)}}}
}

// toWords materializes the container into freshly allocated packed words.
func (c *container) toWords() []uint64 {
	w := make([]uint64, bitmapWords)
	c.writeWords(w)
	return w
}

// writeWords ORs the container's members into w (len bitmapWords).
func (c *container) writeWords(w []uint64) {
	switch c.kind {
	case arrayK:
		for _, v := range c.array {
			w[v>>6] |= 1 << (v & 63)
		}
	case bitmapK:
		for i, x := range c.words {
			w[i] |= x
		}
	case runK:
		for _, r := range c.runs {
			setRange(w, int(r.start), int(r.last))
		}
	}
}

// fromWords builds the canonical container for packed words with the
// given population: array when sparse, the words themselves otherwise.
func fromWords(w []uint64, card int) container {
	if card == 0 {
		return container{}
	}
	if card <= arrayMaxCard {
		arr := make([]uint16, 0, card)
		for i, x := range w {
			base := uint16(i << 6)
			for x != 0 {
				arr = append(arr, base+uint16(bits.TrailingZeros64(x)))
				x &= x - 1
			}
		}
		return container{kind: arrayK, card: int32(card), array: arr}
	}
	return container{kind: bitmapK, card: int32(card), words: w}
}

// toBitmapKind converts c in place to the bitmap representation.
func (c *container) toBitmapKind() {
	if c.kind == bitmapK {
		return
	}
	w := c.toWords()
	*c = container{kind: bitmapK, card: c.card, words: w}
}

// optimize rewrites c into whichever representation costs the fewest
// bytes — the pass Freeze runs over index-owned postings so skewed
// columns keep their tail codes as tiny arrays and their clustered or
// head codes as runs. The set is unchanged.
func (c *container) optimize() {
	if c.card == 0 {
		*c = container{}
		return
	}
	arrayBytes, bitmapBytes := int(c.card)*2, bitmapWords*8
	if int(c.card) > arrayMaxCard {
		arrayBytes = bitmapBytes + 1 // array form not allowed past the threshold
	}
	// Run form only wins below this run count; the counting scan stops
	// as soon as the budget is exceeded, which on incompressible chunks
	// (fresh posting scatters, random data) is a fraction of the chunk.
	runCap := min(arrayBytes, bitmapBytes)/4 + 1
	nRuns := c.countRuns(runCap)
	runBytes := nRuns * 4
	switch {
	case runBytes < arrayBytes && runBytes < bitmapBytes:
		if c.kind != runK {
			runs := make([]interval, 0, nRuns)
			start, prev := -1, -2
			c.forEach(0, func(v int) {
				if v != prev+1 {
					if start >= 0 {
						runs = append(runs, interval{uint16(start), uint16(prev)})
					}
					start = v
				}
				prev = v
			})
			runs = append(runs, interval{uint16(start), uint16(prev)})
			*c = container{kind: runK, card: c.card, runs: runs}
		} else if cap(c.runs) > len(c.runs) {
			c.runs = append([]interval(nil), c.runs...)
		}
	case arrayBytes <= bitmapBytes:
		if c.kind != arrayK {
			arr := make([]uint16, 0, c.card)
			c.forEach(0, func(v int) { arr = append(arr, uint16(v)) })
			*c = container{kind: arrayK, card: c.card, array: arr}
		} else if cap(c.array) > len(c.array) {
			c.array = append([]uint16(nil), c.array...)
		}
	default:
		c.toBitmapKind()
	}
}

// countRuns counts the container's maximal runs of consecutive members,
// giving up once the count exceeds cap (the return is then ≥ cap but no
// longer exact — callers use cap as a "run form cannot win" threshold).
func (c *container) countRuns(cap int) int {
	switch c.kind {
	case arrayK:
		n := 0
		prev := -2
		for _, v := range c.array {
			if int(v) != prev+1 {
				n++
				if n > cap {
					return n
				}
			}
			prev = int(v)
		}
		return n
	case runK:
		return len(c.runs)
	default:
		n := 0
		var carry uint64 // 1 when the previous word ended mid-run
		for _, w := range c.words {
			// Run starts are set bits whose predecessor bit is clear.
			n += bits.OnesCount64(w &^ (w<<1 | carry))
			if n > cap {
				return n
			}
			carry = w >> 63
		}
		return n
	}
}

// --- point operations ---------------------------------------------------

func (c *container) contains(v uint16) bool {
	switch c.kind {
	case arrayK:
		i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= v })
		return i < len(c.array) && c.array[i] == v
	case bitmapK:
		return c.words[v>>6]&(1<<(v&63)) != 0
	default:
		i := sort.Search(len(c.runs), func(i int) bool { return c.runs[i].last >= v })
		return i < len(c.runs) && c.runs[i].start <= v
	}
}

// add inserts v, promoting the representation when needed.
func (c *container) add(v uint16) {
	switch c.kind {
	case arrayK:
		n := len(c.array)
		if n == 0 || c.array[n-1] < v {
			if n >= arrayMaxCard {
				c.toBitmapKind()
				c.add(v)
				return
			}
			c.array = append(c.array, v)
			c.card++
			return
		}
		i := sort.Search(n, func(i int) bool { return c.array[i] >= v })
		if i < n && c.array[i] == v {
			return
		}
		if n >= insertPromote {
			// Random-order insertion: stop paying per-add memmoves.
			c.toBitmapKind()
			c.add(v)
			return
		}
		c.array = append(c.array, 0)
		copy(c.array[i+1:], c.array[i:])
		c.array[i] = v
		c.card++
	case bitmapK:
		w, b := v>>6, uint64(1)<<(v&63)
		if c.words[w]&b == 0 {
			c.words[w] |= b
			c.card++
		}
	default:
		if c.contains(v) {
			return
		}
		// Runs are produced by optimize/Full/Not; mutating one falls back
		// to the dense form, and a later optimize can re-compress.
		c.toBitmapKind()
		c.add(v)
	}
}

// forEach calls fn(base+v) for every member v in ascending order.
func (c *container) forEach(base int, fn func(v int)) {
	switch c.kind {
	case arrayK:
		for _, v := range c.array {
			fn(base + int(v))
		}
	case bitmapK:
		for i, w := range c.words {
			wbase := base + i<<6
			for w != 0 {
				fn(wbase + bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
	default:
		for _, r := range c.runs {
			for v := int(r.start); v <= int(r.last); v++ {
				fn(base + v)
			}
		}
	}
}

// appendRows appends base+v for every member v, in ascending order: the
// forEach walk with the append inlined, since a closure call per row
// made ToRowSet about three times slower (all 40K rows of a table in
// 0.29 ms against 0.09 ms on one CPU).
func (c *container) appendRows(dst RowSet, base int) RowSet {
	switch c.kind {
	case arrayK:
		for _, v := range c.array {
			dst = append(dst, base+int(v))
		}
	case bitmapK:
		for i, w := range c.words {
			wbase := base + i<<6
			for w != 0 {
				dst = append(dst, wbase+bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
	default:
		for _, r := range c.runs {
			for v := int(r.start); v <= int(r.last); v++ {
				dst = append(dst, base+v)
			}
		}
	}
	return dst
}

// --- word-range helpers -------------------------------------------------

// setRange sets bits [lo, hi] (inclusive) in w.
func setRange(w []uint64, lo, hi int) {
	first, last := lo>>6, hi>>6
	fm := ^uint64(0) << (lo & 63)
	lm := ^uint64(0) >> (63 - hi&63)
	if first == last {
		w[first] |= fm & lm
		return
	}
	w[first] |= fm
	for i := first + 1; i < last; i++ {
		w[i] = ^uint64(0)
	}
	w[last] |= lm
}

// clearRange clears bits [lo, hi] (inclusive) in w.
func clearRange(w []uint64, lo, hi int) {
	first, last := lo>>6, hi>>6
	fm := ^uint64(0) << (lo & 63)
	lm := ^uint64(0) >> (63 - hi&63)
	if first == last {
		w[first] &^= fm & lm
		return
	}
	w[first] &^= fm
	for i := first + 1; i < last; i++ {
		w[i] = 0
	}
	w[last] &^= lm
}

// onesCountRange counts set bits of w within [lo, hi] inclusive.
func onesCountRange(w []uint64, lo, hi int) int {
	first, last := lo>>6, hi>>6
	fm := ^uint64(0) << (lo & 63)
	lm := ^uint64(0) >> (63 - hi&63)
	if first == last {
		return bits.OnesCount64(w[first] & fm & lm)
	}
	total := bits.OnesCount64(w[first] & fm)
	for i := first + 1; i < last; i++ {
		total += bits.OnesCount64(w[i])
	}
	return total + bits.OnesCount64(w[last]&lm)
}

// --- array primitives ---------------------------------------------------

// gallopSearch returns the smallest index i in a[from:] with a[i] >= v,
// by exponential probe then binary search — O(log distance) instead of
// O(len) when the intersection partner is much shorter.
func gallopSearch(a []uint16, from int, v uint16) int {
	bound := 1
	for from+bound < len(a) && a[from+bound] < v {
		bound <<= 1
	}
	hi := from + bound
	if hi > len(a) {
		hi = len(a)
	}
	lo := from + bound>>1
	for lo < hi {
		mid := (lo + hi) >> 1
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intersectArrays writes a ∩ b into out (which may be nil) and returns
// it, galloping through the longer side when the imbalance warrants.
func intersectArrays(a, b, out []uint16) []uint16 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return out
	}
	if len(b) >= len(a)*gallopRatio {
		j := 0
		for _, v := range a {
			j = gallopSearch(b, j, v)
			if j == len(b) {
				break
			}
			if b[j] == v {
				out = append(out, v)
				j++
			}
		}
		return out
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// intersectArrayRuns appends the members of arr that fall inside runs.
func intersectArrayRuns(arr []uint16, runs []interval, out []uint16) []uint16 {
	j := 0
	for _, v := range arr {
		for j < len(runs) && runs[j].last < v {
			j++
		}
		if j == len(runs) {
			break
		}
		if runs[j].start <= v {
			out = append(out, v)
		}
	}
	return out
}

// intersectRuns appends the interval intersection of a and b to out.
func intersectRuns(a, b, out []interval) []interval {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].start
		if b[j].start > lo {
			lo = b[j].start
		}
		hi := a[i].last
		if b[j].last < hi {
			hi = b[j].last
		}
		if lo <= hi {
			out = append(out, interval{lo, hi})
		}
		if a[i].last < b[j].last {
			i++
		} else {
			j++
		}
	}
	return out
}

// --- binary set operations ----------------------------------------------

// andContainers returns a ∩ b in canonical form.
func andContainers(a, b *container) container {
	if a.card == 0 || b.card == 0 {
		return container{}
	}
	// Normalize the dispatch: array before run before bitmap on the left.
	if a.kind == bitmapK && b.kind != bitmapK {
		a, b = b, a
	}
	if a.kind == runK && b.kind == arrayK {
		a, b = b, a
	}
	switch {
	case a.kind == arrayK && b.kind == arrayK:
		out := intersectArrays(a.array, b.array, make([]uint16, 0, minInt(len(a.array), len(b.array))))
		return arrayContainer(out)
	case a.kind == arrayK && b.kind == runK:
		out := intersectArrayRuns(a.array, b.runs, make([]uint16, 0, len(a.array)))
		return arrayContainer(out)
	case a.kind == arrayK: // array ∩ bitmap
		out := make([]uint16, 0, len(a.array))
		for _, v := range a.array {
			if b.words[v>>6]&(1<<(v&63)) != 0 {
				out = append(out, v)
			}
		}
		return arrayContainer(out)
	case a.kind == runK && b.kind == runK:
		runs := intersectRuns(a.runs, b.runs, make([]interval, 0, len(a.runs)+len(b.runs)))
		return runContainer(runs)
	case a.kind == runK: // run ∩ bitmap: copy the masked ranges
		w := make([]uint64, bitmapWords)
		card := 0
		for _, r := range a.runs {
			first, last := int(r.start)>>6, int(r.last)>>6
			fm := ^uint64(0) << (r.start & 63)
			lm := ^uint64(0) >> (63 - r.last&63)
			if first == last {
				w[first] |= b.words[first] & fm & lm
				continue
			}
			w[first] |= b.words[first] & fm
			for i := first + 1; i < last; i++ {
				w[i] = b.words[i]
			}
			w[last] |= b.words[last] & lm
		}
		for _, x := range w {
			card += bits.OnesCount64(x)
		}
		return fromWords(w, card)
	default: // bitmap ∩ bitmap
		w := make([]uint64, bitmapWords)
		card := 0
		for i, x := range a.words {
			x &= b.words[i]
			w[i] = x
			card += bits.OnesCount64(x)
		}
		return fromWords(w, card)
	}
}

// arrayContainer wraps a sorted unique slice as a canonical container.
func arrayContainer(arr []uint16) container {
	if len(arr) == 0 {
		return container{}
	}
	if len(arr) > arrayMaxCard {
		c := container{kind: arrayK, card: int32(len(arr)), array: arr}
		c.toBitmapKind()
		return c
	}
	return container{kind: arrayK, card: int32(len(arr)), array: arr}
}

// runContainer wraps sorted disjoint intervals as a container.
func runContainer(runs []interval) container {
	if len(runs) == 0 {
		return container{}
	}
	card := 0
	for _, r := range runs {
		card += int(r.last) - int(r.start) + 1
	}
	return container{kind: runK, card: int32(card), runs: runs}
}

// orContainers returns a ∪ b in canonical form.
func orContainers(a, b *container) container {
	if a.card == 0 {
		return b.clone()
	}
	if b.card == 0 {
		return a.clone()
	}
	if a.kind == arrayK && b.kind == arrayK && len(a.array)+len(b.array) <= arrayMaxCard {
		out := make([]uint16, 0, len(a.array)+len(b.array))
		i, j := 0, 0
		for i < len(a.array) && j < len(b.array) {
			switch {
			case a.array[i] < b.array[j]:
				out = append(out, a.array[i])
				i++
			case a.array[i] > b.array[j]:
				out = append(out, b.array[j])
				j++
			default:
				out = append(out, a.array[i])
				i++
				j++
			}
		}
		out = append(out, a.array[i:]...)
		out = append(out, b.array[j:]...)
		return arrayContainer(out)
	}
	if a.kind == runK && b.kind == runK {
		return runContainer(unionRuns(a.runs, b.runs))
	}
	w := make([]uint64, bitmapWords)
	a.writeWords(w)
	b.writeWords(w)
	card := 0
	for _, x := range w {
		card += bits.OnesCount64(x)
	}
	return fromWords(w, card)
}

// unionRuns merges two sorted disjoint interval lists, coalescing
// touching intervals.
func unionRuns(a, b []interval) []interval {
	out := make([]interval, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var next interval
		if j == len(b) || (i < len(a) && a[i].start <= b[j].start) {
			next = a[i]
			i++
		} else {
			next = b[j]
			j++
		}
		if n := len(out); n > 0 && int(next.start) <= int(out[n-1].last)+1 {
			if next.last > out[n-1].last {
				out[n-1].last = next.last
			}
		} else {
			out = append(out, next)
		}
	}
	return out
}

// andNotContainers returns a \ b in canonical form.
func andNotContainers(a, b *container) container {
	if a.card == 0 || b.card == 0 {
		return a.clone()
	}
	switch a.kind {
	case arrayK:
		out := make([]uint16, 0, len(a.array))
		switch b.kind {
		case arrayK:
			j := 0
			for _, v := range a.array {
				for j < len(b.array) && b.array[j] < v {
					j++
				}
				if j < len(b.array) && b.array[j] == v {
					continue
				}
				out = append(out, v)
			}
		case bitmapK:
			for _, v := range a.array {
				if b.words[v>>6]&(1<<(v&63)) == 0 {
					out = append(out, v)
				}
			}
		default:
			j := 0
			for _, v := range a.array {
				for j < len(b.runs) && b.runs[j].last < v {
					j++
				}
				if j < len(b.runs) && b.runs[j].start <= v {
					continue
				}
				out = append(out, v)
			}
		}
		return arrayContainer(out)
	default:
		// Dense and run minuends go through words; run subtrahends clear
		// whole ranges instead of per-bit work.
		w := a.toWords()
		switch b.kind {
		case arrayK:
			for _, v := range b.array {
				w[v>>6] &^= 1 << (v & 63)
			}
		case bitmapK:
			for i, x := range b.words {
				w[i] &^= x
			}
		default:
			for _, r := range b.runs {
				clearRange(w, int(r.start), int(r.last))
			}
		}
		card := 0
		for _, x := range w {
			card += bits.OnesCount64(x)
		}
		return fromWords(w, card)
	}
}

// notContainer returns the complement of a within [0, lim).
func notContainer(a *container, lim int) container {
	if lim <= 0 {
		return container{}
	}
	if a.card == 0 {
		return fullContainer(lim)
	}
	if a.kind == runK {
		out := make([]interval, 0, len(a.runs)+1)
		next := 0
		for _, r := range a.runs {
			if int(r.start) > next {
				out = append(out, interval{uint16(next), uint16(r.start - 1)})
			}
			next = int(r.last) + 1
		}
		if next < lim {
			out = append(out, interval{uint16(next), uint16(lim - 1)})
		}
		return runContainer(out)
	}
	w := make([]uint64, bitmapWords)
	setRange(w, 0, lim-1)
	switch a.kind {
	case arrayK:
		for _, v := range a.array {
			w[v>>6] &^= 1 << (v & 63)
		}
	default:
		for i, x := range a.words {
			w[i] &^= x
		}
		// Members never exceed lim, so no re-masking is needed.
	}
	return fromWords(w, lim-int(a.card))
}

// --- counting and iteration over intersections --------------------------

// andLenContainers returns |a ∩ b| without materializing it.
func andLenContainers(a, b *container) int {
	if a.card == 0 || b.card == 0 {
		return 0
	}
	if a.kind == bitmapK && b.kind != bitmapK {
		a, b = b, a
	}
	if a.kind == runK && b.kind == arrayK {
		a, b = b, a
	}
	switch {
	case a.kind == arrayK && b.kind == arrayK:
		return countIntersectArrays(a.array, b.array)
	case a.kind == arrayK && b.kind == runK:
		n, j := 0, 0
		for _, v := range a.array {
			for j < len(b.runs) && b.runs[j].last < v {
				j++
			}
			if j == len(b.runs) {
				break
			}
			if b.runs[j].start <= v {
				n++
			}
		}
		return n
	case a.kind == arrayK: // array ∩ bitmap
		n := 0
		for _, v := range a.array {
			if b.words[v>>6]&(1<<(v&63)) != 0 {
				n++
			}
		}
		return n
	case a.kind == runK && b.kind == runK:
		n := 0
		i, j := 0, 0
		for i < len(a.runs) && j < len(b.runs) {
			lo := maxU16(a.runs[i].start, b.runs[j].start)
			hi := minU16(a.runs[i].last, b.runs[j].last)
			if lo <= hi {
				n += int(hi) - int(lo) + 1
			}
			if a.runs[i].last < b.runs[j].last {
				i++
			} else {
				j++
			}
		}
		return n
	case a.kind == runK: // run ∩ bitmap
		n := 0
		for _, r := range a.runs {
			n += onesCountRange(b.words, int(r.start), int(r.last))
		}
		return n
	default: // bitmap ∩ bitmap
		n := 0
		for i, x := range a.words {
			n += bits.OnesCount64(x & b.words[i])
		}
		return n
	}
}

// countIntersectArrays is intersectArrays without the output.
func countIntersectArrays(a, b []uint16) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	n := 0
	if len(b) >= len(a)*gallopRatio {
		j := 0
		for _, v := range a {
			j = gallopSearch(b, j, v)
			if j == len(b) {
				break
			}
			if b[j] == v {
				n++
				j++
			}
		}
		return n
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// memoryBytes is the payload footprint of the container's backing store.
func (c *container) memoryBytes() int {
	return cap(c.array)*2 + cap(c.words)*8 + cap(c.runs)*4
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func minU16(a, b uint16) uint16 {
	if a < b {
		return a
	}
	return b
}

func maxU16(a, b uint16) uint16 {
	if a > b {
		return a
	}
	return b
}
