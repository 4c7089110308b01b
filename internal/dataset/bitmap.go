package dataset

import (
	"sync/atomic"

	"dbexplorer/internal/parallel"
)

// Bitmap is a fixed-universe row set: row i belongs to the set when its
// bit is set. It is the vectorized counterpart of RowSet — but instead
// of one flat array of uint64 words, the universe is split into 64K-row
// chunks each stored as a hybrid container (sorted uint16 array, packed
// bitmap words, or run intervals; see container.go) chosen by the
// chunk's population. Sparse sets therefore cost memory and set-algebra
// time proportional to their cardinality, not to the universe: a
// 0.1%-selectivity posting over a million rows is a handful of small
// arrays, and intersecting two of them gallops through the shorter one
// instead of streaming rows/64 words.
//
// A Bitmap is created for a universe of n rows ({0, ..., n-1}) and all
// binary operations require both operands to share that universe; mixing
// universes is a programming error and panics. Conversion to and from
// RowSet is lossless: both representations are canonical (a row is
// either in or out), so FromRowSet followed by ToRowSet returns the
// original sorted unique rows regardless of which container form each
// chunk happens to be in.
type Bitmap struct {
	cs []container // one per 64K chunk; the last chunk may be partial
	n  int         // universe size in bits

	// frozen marks index-owned bitmaps (posting sets) that outside code
	// must never mutate: the same containers back every query that
	// touches the posting. Mutators panic on frozen bitmaps when the
	// alias guard is enabled (tests); Clone always returns a mutable
	// copy.
	frozen bool
}

// aliasGuard, when enabled, makes in-place mutation of a frozen bitmap
// panic instead of silently corrupting the shared index. Test suites
// turn it on; production keeps the check to one branch on a local bool.
var aliasGuard atomic.Bool

// SetAliasGuard enables or disables the frozen-bitmap mutation guard,
// returning the previous setting. Intended for tests (TestMain).
func SetAliasGuard(on bool) (prev bool) {
	return aliasGuard.Swap(on)
}

// Freeze marks the bitmap as index-owned — with the alias guard enabled,
// any in-place mutation panics — and compacts each chunk into its
// cheapest container form (sorted tails become exact-size arrays,
// clustered or head-heavy chunks become runs). It returns b for
// chaining. Freeze is the owner's final build step; the set is
// unchanged.
func (b *Bitmap) Freeze() *Bitmap {
	for i := range b.cs {
		b.cs[i].optimize()
	}
	b.frozen = true
	return b
}

// checkMutable panics when a frozen bitmap is about to be mutated and
// the alias guard is on.
func (b *Bitmap) checkMutable() {
	if b.frozen && aliasGuard.Load() {
		panic("dataset: in-place mutation of an index-owned bitmap (clone it first)")
	}
}

// NewBitmap returns an empty bitmap over the universe {0, ..., n-1}.
func NewBitmap(n int) *Bitmap {
	if n < 0 {
		panic("dataset: negative bitmap universe")
	}
	return &Bitmap{cs: make([]container, (n+chunkMask)>>chunkBits), n: n}
}

// FullBitmap returns the bitmap with every row of the universe set —
// one run container per chunk.
func FullBitmap(n int) *Bitmap {
	b := NewBitmap(n)
	for i := range b.cs {
		b.cs[i] = fullContainer(b.chunkLim(i))
	}
	return b
}

// FromRowSet packs a sorted unique row set over universe n into a bitmap.
// Each 64K segment's span of the set becomes that segment's container
// directly (sorted offsets → exact-size array, dense spans → packed
// words), and large sets pack their segments in parallel on the shared
// pool — this is the builder's entry into bitmap algebra, so packing a
// million-row result must not cost a million promotion-checked Adds.
// Inputs that violate the RowSet contract (unsorted or duplicated) fall
// back to the per-row Add path with identical set semantics.
func FromRowSet(n int, rows RowSet) *Bitmap {
	b := NewBitmap(n)
	if len(rows) == 0 {
		return b
	}
	if rows[0] < 0 || rows[len(rows)-1] >= n {
		panic("dataset: bitmap row out of universe")
	}
	ok := true
	if len(rows) >= parallelPackMin && len(b.cs) > 1 {
		var bad atomic.Bool
		parallel.Do(len(b.cs), func(s int) {
			c, packed := packSpan(rows.SegmentSpan(s))
			if !packed {
				bad.Store(true)
				return
			}
			b.cs[s] = c
		})
		ok = !bad.Load()
	} else {
		lo := 0
		for s := 0; ok && s < len(b.cs); s++ {
			hi := lo
			lim := (s + 1) << chunkBits
			for hi < len(rows) && rows[hi] < lim {
				hi++
			}
			var c container
			c, ok = packSpan(rows[lo:hi])
			if ok {
				b.cs[s] = c
			}
			lo = hi
		}
	}
	if !ok {
		for i := range b.cs {
			b.cs[i] = container{}
		}
		for _, r := range rows {
			b.Add(r)
		}
	}
	return b
}

// parallelPackMin is the set size past which FromRowSet packs segments
// on the worker pool instead of inline.
const parallelPackMin = 1 << 16

// packSpan builds the container for one segment's span of a row set.
// It reports false when the span is not strictly ascending (contract
// violation); the caller then falls back to the Add path.
func packSpan(span RowSet) (container, bool) {
	cnt := len(span)
	if cnt == 0 {
		return container{}, true
	}
	prev := -1
	if cnt > arrayMaxCard {
		w := make([]uint64, bitmapWords)
		for _, r := range span {
			if r <= prev {
				return container{}, false
			}
			prev = r
			off := r & chunkMask
			w[off>>6] |= 1 << (uint(off) & 63)
		}
		return container{kind: bitmapK, card: int32(cnt), words: w}, true
	}
	arr := make([]uint16, cnt)
	for i, r := range span {
		if r <= prev {
			return container{}, false
		}
		prev = r
		arr[i] = uint16(r & chunkMask)
	}
	return container{kind: arrayK, card: int32(cnt), array: arr}, true
}

// chunkLim returns the number of universe rows chunk i covers (chunkSize
// for all but possibly the last chunk).
func (b *Bitmap) chunkLim(i int) int {
	if lim := b.n - i<<chunkBits; lim < chunkSize {
		return lim
	}
	return chunkSize
}

// Universe returns the universe size n the bitmap was created for.
func (b *Bitmap) Universe() int { return b.n }

// MemoryBytes returns the bytes of backing storage the bitmap holds —
// the payload the posting-memory gauge aggregates, excluding the fixed
// struct headers. Hybrid containers make this proportional to the
// chunk populations rather than a flat rows/8.
func (b *Bitmap) MemoryBytes() int {
	total := 0
	for i := range b.cs {
		total += b.cs[i].memoryBytes()
	}
	return total
}

// Add sets row i, promoting the chunk's container when it outgrows its
// representation (array → packed words past arrayMaxCard, or earlier
// under random-order insertion).
func (b *Bitmap) Add(i int) {
	b.checkMutable()
	if i < 0 || i >= b.n {
		panic("dataset: bitmap row out of universe")
	}
	b.cs[i>>chunkBits].add(uint16(i & chunkMask))
}

// Contains reports whether row i is set. Rows outside the universe are
// never members.
func (b *Bitmap) Contains(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.cs[i>>chunkBits].contains(uint16(i & chunkMask))
}

// Len returns the set cardinality. Containers cache their population,
// so this is O(chunks), not O(rows).
func (b *Bitmap) Len() int {
	total := 0
	for i := range b.cs {
		total += int(b.cs[i].card)
	}
	return total
}

// Clone returns a mutable copy of b.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{cs: make([]container, len(b.cs)), n: b.n}
	for i := range b.cs {
		out.cs[i] = b.cs[i].clone()
	}
	return out
}

// Resize returns b's members below n as a bitmap over the universe
// {0, ..., n-1}: a smaller universe drops the rows at or past n, a
// larger one adds no members. It is how a set from a grown table's index
// meets a set over an older row snapshot, and back. b itself comes back
// when n is already its universe; otherwise the result shares b's
// containers (all but a cut tail) and is read-only, like an index-owned
// set.
func (b *Bitmap) Resize(n int) *Bitmap {
	if n == b.n {
		return b
	}
	out := NewBitmap(n)
	copy(out.cs, b.cs)
	if last := len(out.cs) - 1; n < b.n && out.chunkLim(last) < chunkSize {
		keep := fullContainer(out.chunkLim(last))
		out.cs[last] = andContainers(&b.cs[last], &keep)
	}
	out.frozen = true
	return out
}

// sameUniverse panics unless o shares b's universe.
func (b *Bitmap) sameUniverse(o *Bitmap) {
	if b.n != o.n {
		panic("dataset: bitmap universe mismatch")
	}
}

// And returns the intersection b ∩ o as a new bitmap.
func (b *Bitmap) And(o *Bitmap) *Bitmap {
	b.sameUniverse(o)
	out := &Bitmap{cs: make([]container, len(b.cs)), n: b.n}
	for i := range b.cs {
		out.cs[i] = andContainers(&b.cs[i], &o.cs[i])
	}
	return out
}

// AndWith intersects o into b in place and returns b, for folding long
// filter stacks without one allocation per step.
func (b *Bitmap) AndWith(o *Bitmap) *Bitmap {
	b.checkMutable()
	b.sameUniverse(o)
	for i := range b.cs {
		if b.cs[i].card == 0 {
			continue
		}
		if o.cs[i].card == 0 {
			b.cs[i] = container{}
			continue
		}
		b.cs[i] = andContainers(&b.cs[i], &o.cs[i])
	}
	return b
}

// Or returns the union b ∪ o as a new bitmap.
func (b *Bitmap) Or(o *Bitmap) *Bitmap {
	b.sameUniverse(o)
	out := &Bitmap{cs: make([]container, len(b.cs)), n: b.n}
	for i := range b.cs {
		out.cs[i] = orContainers(&b.cs[i], &o.cs[i])
	}
	return out
}

// OrWith unions o into b in place and returns b.
func (b *Bitmap) OrWith(o *Bitmap) *Bitmap {
	b.checkMutable()
	b.sameUniverse(o)
	for i := range b.cs {
		if o.cs[i].card == 0 {
			continue
		}
		b.cs[i] = orContainers(&b.cs[i], &o.cs[i])
	}
	return b
}

// AndNot returns the difference b \ o as a new bitmap.
func (b *Bitmap) AndNot(o *Bitmap) *Bitmap {
	b.sameUniverse(o)
	out := &Bitmap{cs: make([]container, len(b.cs)), n: b.n}
	for i := range b.cs {
		out.cs[i] = andNotContainers(&b.cs[i], &o.cs[i])
	}
	return out
}

// Not returns the complement of b within its universe.
func (b *Bitmap) Not() *Bitmap {
	out := &Bitmap{cs: make([]container, len(b.cs)), n: b.n}
	for i := range b.cs {
		out.cs[i] = notContainer(&b.cs[i], b.chunkLim(i))
	}
	return out
}

// complete reports whether chunk i's container holds every row of the
// chunk's universe span. Intersecting with a complete container is the
// identity over the chunk, so the fused-count and iteration primitives
// below drop complete operands from the op entirely — on the common
// "over the whole table" shapes (CAD View builds over AllRows, facet
// digests of unfiltered results) this turns per-member probe work into
// a cached-cardinality lookup. The container cardinality is maintained
// by every mutation, so the check is O(1) and exact.
func (b *Bitmap) complete(i int) bool {
	return int(b.cs[i].card) == b.chunkLim(i)
}

// AndLen returns |b ∩ o| without materializing the intersection — the
// facet digest's per-code counting primitive. Sparse×sparse pairs
// gallop; dense pairs popcount fused words; chunks where either operand
// is complete read the other's cached cardinality.
func (b *Bitmap) AndLen(o *Bitmap) int {
	b.sameUniverse(o)
	total := 0
	for i := range b.cs {
		switch {
		case o.complete(i):
			total += int(b.cs[i].card)
		case b.complete(i):
			total += int(o.cs[i].card)
		default:
			total += andLenContainers(&b.cs[i], &o.cs[i])
		}
	}
	return total
}

// ForEach calls fn for every set row in ascending order.
func (b *Bitmap) ForEach(fn func(row int)) {
	for i := range b.cs {
		b.cs[i].forEach(i<<chunkBits, fn)
	}
}

// Slice returns the rows ranked [offset, offset+limit) in ascending row
// order — one page of the bitmap. Chunks before the page are skipped by
// their cached cardinality, so paging deep into a large result set
// costs proportional to the page, not the offset. limit < 0 means "to
// the end".
func (b *Bitmap) Slice(offset, limit int) RowSet {
	if offset < 0 {
		offset = 0
	}
	if limit == 0 {
		return RowSet{}
	}
	capHint := limit
	if n := b.Len() - offset; capHint < 0 || capHint > n {
		capHint = n
	}
	if capHint < 0 {
		capHint = 0
	}
	out := make(RowSet, 0, capHint)
	r := 0 // rank of the next row each forEach visit reports
	for i := range b.cs {
		card := int(b.cs[i].card)
		if card == 0 || r+card <= offset {
			r += card
			continue
		}
		if limit >= 0 && r >= offset+limit {
			break
		}
		b.cs[i].forEach(i<<chunkBits, func(v int) {
			if r >= offset && (limit < 0 || r < offset+limit) {
				out = append(out, v)
			}
			r++
		})
	}
	return out
}

// ToRowSet unpacks the bitmap into a sorted unique RowSet.
func (b *Bitmap) ToRowSet() RowSet {
	out := make(RowSet, 0, b.Len())
	for i := range b.cs {
		out = b.cs[i].appendRows(out, i<<chunkBits)
	}
	return out
}
