package dataset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Property harness for the hybrid container layer. The strategy mirrors
// bitmap_test.go — pin every bitmap operation to the merge-based RowSet
// reference — but the generator here is adversarial about container
// shape instead of uniform-random: each 64K chunk of a generated bitmap
// is forced into one of the boundary populations (empty, full, a single
// run, a sparse array, the array→bitmap promotion threshold ±1, or a
// striped pattern no run encoding can compress), and universes straddle
// the chunk boundary itself. Every trial also re-checks the frozen
// (optimize()-compacted) forms, so array/run/bitmap re-encodings are
// exercised on both sides of every operation.

// chunkShapes enumerates the boundary populations a chunk can be forced
// into. Values are indices into shapeRows' switch.
const numChunkShapes = 8

// shapeRows returns the rows of chunk [base, base+lim) selected by the
// given shape, sorted ascending.
func shapeRows(rng *rand.Rand, shape, base, lim int) []int {
	pick := func(card int) []int {
		if card > lim {
			card = lim
		}
		perm := rng.Perm(lim)[:card]
		sort.Ints(perm)
		out := make([]int, card)
		for i, v := range perm {
			out[i] = base + v
		}
		return out
	}
	switch shape {
	case 0: // empty
		return nil
	case 1: // full
		out := make([]int, lim)
		for i := range out {
			out[i] = base + i
		}
		return out
	case 2: // single run
		start := rng.Intn(lim)
		end := start + rng.Intn(lim-start) + 1
		out := make([]int, 0, end-start)
		for v := start; v < end; v++ {
			out = append(out, base+v)
		}
		return out
	case 3: // sparse array
		return pick(1 + rng.Intn(64))
	case 4: // promotion threshold - 1
		return pick(arrayMaxCard - 1)
	case 5: // promotion threshold exactly
		return pick(arrayMaxCard)
	case 6: // promotion threshold + 1
		return pick(arrayMaxCard + 1)
	default: // stripes: every other value — incompressible for runs
		out := make([]int, 0, lim/2)
		for v := rng.Intn(2); v < lim; v += 2 {
			out = append(out, base+v)
		}
		return out
	}
}

// shapedBitmap builds a bitmap over universe n whose chunks each take a
// random boundary shape, returning it with its reference RowSet.
func shapedBitmap(rng *rand.Rand, n int) (*Bitmap, RowSet) {
	b := NewBitmap(n)
	var ref RowSet
	for base := 0; base < n; base += chunkSize {
		lim := n - base
		if lim > chunkSize {
			lim = chunkSize
		}
		rows := shapeRows(rng, rng.Intn(numChunkShapes), base, lim)
		for _, r := range rows {
			b.Add(r)
		}
		ref = append(ref, rows...)
	}
	if ref == nil {
		ref = RowSet{}
	}
	return b, ref
}

// checkAgainstReference runs the full operation matrix of (a, b)
// against the RowSet reference and reports the first divergence.
func checkAgainstReference(t *testing.T, label string, a, b *Bitmap, ra, rb RowSet) {
	t.Helper()
	n := a.Universe()
	if got := a.ToRowSet(); !reflect.DeepEqual(got, ra) {
		t.Fatalf("%s: ToRowSet diverged: got %d rows, want %d", label, len(got), len(ra))
	}
	if a.Len() != len(ra) {
		t.Fatalf("%s: Len = %d, want %d", label, a.Len(), len(ra))
	}
	inter := ra.Intersect(rb)
	if got := a.And(b).ToRowSet(); !reflect.DeepEqual(got, inter) {
		t.Fatalf("%s: And diverged (got %d rows, want %d)", label, len(got), len(inter))
	}
	if got := a.Clone().AndWith(b).ToRowSet(); !reflect.DeepEqual(got, inter) {
		t.Fatalf("%s: AndWith diverged", label)
	}
	if got := a.AndLen(b); got != len(inter) {
		t.Fatalf("%s: AndLen = %d, want %d", label, got, len(inter))
	}
	union := ra.Union(rb)
	if got := a.Or(b).ToRowSet(); !reflect.DeepEqual(got, union) {
		t.Fatalf("%s: Or diverged (got %d rows, want %d)", label, len(got), len(union))
	}
	if got := a.Clone().OrWith(b).ToRowSet(); !reflect.DeepEqual(got, union) {
		t.Fatalf("%s: OrWith diverged", label)
	}
	minus := ra.Minus(rb)
	if got := a.AndNot(b).ToRowSet(); !reflect.DeepEqual(got, minus) {
		t.Fatalf("%s: AndNot diverged (got %d rows, want %d)", label, len(got), len(minus))
	}
	if got := a.Not().Len(); got != n-len(ra) {
		t.Fatalf("%s: Not().Len = %d, want %d", label, got, n-len(ra))
	}
	// Lossless round-trip regardless of container forms.
	if got := FromRowSet(n, ra).ToRowSet(); !reflect.DeepEqual(got, ra) {
		t.Fatalf("%s: FromRowSet/ToRowSet round trip diverged", label)
	}
}

// TestContainerShapesAgainstReference is the boundary-shape property:
// bitmaps whose chunks are forced into empty/full/run/threshold±1/stripe
// forms agree with the RowSet reference on every operation, in both the
// as-built and the frozen (optimize-compacted) container forms.
func TestContainerShapesAgainstReference(t *testing.T) {
	universes := []int{chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize - 1000}
	rng := rand.New(rand.NewSource(42))
	for _, n := range universes {
		for trial := 0; trial < 3; trial++ {
			a, ra := shapedBitmap(rng, n)
			b, rb := shapedBitmap(rng, n)
			checkAgainstReference(t, "raw", a, b, ra, rb)
			// Frozen forms re-encode every chunk into its cheapest
			// container; the sets must be unchanged and all operations
			// must keep agreeing across mixed raw×frozen operands.
			fa, fb := a.Clone().Freeze(), b.Clone().Freeze()
			if !reflect.DeepEqual(fa.ToRowSet(), ra) {
				t.Fatalf("Freeze changed the set (n=%d trial=%d)", n, trial)
			}
			checkAgainstReference(t, "frozen", fa, fb, ra, rb)
			checkAgainstReference(t, "mixed", a, fb, ra, rb)
		}
	}
}

// TestContainerPromotionBoundary pins the array→bitmap promotion rules:
// ascending insertion keeps the array form through arrayMaxCard and
// promotes one past it; random-order insertion promotes early (after
// insertPromote out-of-order inserts) instead of paying quadratic
// memmoves; mutating a run container re-encodes it as packed words.
func TestContainerPromotionBoundary(t *testing.T) {
	// Ascending adds: array through the threshold, bitmap past it.
	b := NewBitmap(chunkSize)
	for v := 0; v < arrayMaxCard; v++ {
		b.Add(v * 3)
	}
	if k := b.cs[0].kind; k != arrayK {
		t.Fatalf("card %d ascending: kind = %d, want array", arrayMaxCard, k)
	}
	b.Add(arrayMaxCard * 3)
	if k := b.cs[0].kind; k != bitmapK {
		t.Fatalf("card %d: kind = %d, want bitmap after promotion", arrayMaxCard+1, k)
	}
	if b.Len() != arrayMaxCard+1 {
		t.Fatalf("Len after promotion = %d, want %d", b.Len(), arrayMaxCard+1)
	}

	// Descending (worst-case out-of-order) adds: early promotion long
	// before the cardinality threshold.
	d := NewBitmap(chunkSize)
	for v := 0; v < 2*insertPromote; v++ {
		d.Add(chunkSize - 1 - v)
	}
	if k := d.cs[0].kind; k != bitmapK {
		t.Fatalf("descending inserts: kind = %d, want early bitmap promotion", k)
	}
	if d.Len() != 2*insertPromote {
		t.Fatalf("descending Len = %d, want %d", d.Len(), 2*insertPromote)
	}

	// Run containers re-encode on mutation: a frozen full prefix is a
	// run; adding to a mutable clone must keep the set exact.
	r := NewBitmap(chunkSize)
	for v := 0; v < 10000; v++ {
		r.Add(v)
	}
	r.Freeze()
	if k := r.cs[0].kind; k != runK {
		t.Fatalf("contiguous prefix after Freeze: kind = %d, want run", k)
	}
	rc := r.Clone()
	rc.Add(20000)
	if !rc.Contains(20000) || !rc.Contains(9999) || rc.Len() != 10001 {
		t.Fatal("run container mutation lost members")
	}
}

// TestContainerOptimizePicksCheapestForm checks Freeze re-encodes each
// chunk into the min-byte representation: contiguous blocks become runs,
// sparse tails become exact-size arrays, and striped chunks — where no
// cheaper form exists — stay packed words.
func TestContainerOptimizePicksCheapestForm(t *testing.T) {
	n := 2 * chunkSize
	b := NewBitmap(n)
	for v := 0; v < chunkSize; v++ {
		b.Add(v) // chunk 0: full → one run
	}
	for v := chunkSize; v < 2*chunkSize; v += 2 {
		b.Add(v) // chunk 1: stripes → must stay a bitmap
	}
	before := b.MemoryBytes()
	b.Freeze()
	if k := b.cs[0].kind; k != runK {
		t.Fatalf("full chunk froze to kind %d, want run", k)
	}
	if k := b.cs[1].kind; k != bitmapK {
		t.Fatalf("striped chunk froze to kind %d, want bitmap", k)
	}
	after := b.MemoryBytes()
	if after > before {
		t.Fatalf("optimize grew memory: %d -> %d bytes", before, after)
	}
	// The full chunk collapsed from 8KiB of words to one 4-byte run.
	if want := 4 + bitmapWords*8; after != want {
		t.Fatalf("MemoryBytes after freeze = %d, want %d", after, want)
	}
	// Sparse chunk: ~2 bytes per member (MemoryBytes counts capacity, so
	// allocator size-class rounding allows a few slack bytes — never the
	// 8KiB a packed chunk would cost).
	s := NewBitmap(chunkSize)
	for v := 0; v < 100; v++ {
		s.Add(v * 577)
	}
	if got := s.Clone().Freeze().MemoryBytes(); got < 200 || got > 256 {
		t.Fatalf("sparse frozen MemoryBytes = %d, want ~200", got)
	}
}

// TestFrozenContainerKindsGuarded: the alias guard (armed by TestMain)
// must trip on in-place mutation regardless of which container form
// Freeze chose for a chunk — array, run, or packed bitmap.
func TestFrozenContainerKindsGuarded(t *testing.T) {
	build := func(kind ckind) *Bitmap {
		b := NewBitmap(chunkSize)
		switch kind {
		case arrayK:
			b.Add(7)
		case runK:
			for v := 0; v < 9000; v++ {
				b.Add(v)
			}
		default: // bitmapK: stripes resist run encoding
			for v := 0; v < chunkSize; v += 2 {
				b.Add(v)
			}
		}
		b.Freeze()
		if b.cs[0].kind != kind {
			t.Fatalf("fixture froze to kind %d, want %d", b.cs[0].kind, kind)
		}
		return b
	}
	other := NewBitmap(chunkSize)
	other.Add(3)
	mutators := map[string]func(*Bitmap){
		"Add":     func(b *Bitmap) { b.Add(11) },
		"AndWith": func(b *Bitmap) { b.AndWith(other) },
		"OrWith":  func(b *Bitmap) { b.OrWith(other) },
	}
	for _, kind := range []ckind{arrayK, runK, bitmapK} {
		for name, mutate := range mutators {
			b := build(kind)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("kind %d: %s on frozen bitmap did not panic", kind, name)
					}
				}()
				mutate(b)
			}()
			// A clone must be mutable whatever form it inherited.
			mutate(b.Clone())
		}
	}
}

// TestGallopIntersection drives the galloping array intersection on the
// imbalanced operands it exists for: a handful of probes against a large
// sorted array, on both sides.
func TestGallopIntersection(t *testing.T) {
	n := chunkSize
	big := NewBitmap(n)
	var ref RowSet
	for v := 0; v < n; v += 7 {
		big.Add(v)
		ref = append(ref, v)
	}
	small := NewBitmap(n)
	for _, v := range []int{0, 7, 13, 7 * 1000, 7*2000 + 1, n - 2} {
		small.Add(v)
	}
	want := small.ToRowSet().Intersect(ref)
	if got := small.And(big).ToRowSet(); !reflect.DeepEqual(got, want) {
		t.Fatalf("gallop small×big = %v, want %v", got, want)
	}
	if got := big.And(small).ToRowSet(); !reflect.DeepEqual(got, want) {
		t.Fatalf("gallop big×small = %v, want %v", got, want)
	}
	if got := small.AndLen(big); got != len(want) {
		t.Fatalf("gallop AndLen = %d, want %d", got, len(want))
	}
}
