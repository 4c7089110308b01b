package dataset

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// toRowSet maps arbitrary raw values into a sorted unique RowSet over
// universe n — the canonical form both representations promise.
func toRowSet(raw []uint16, n int) RowSet {
	seen := make(map[int]bool)
	for _, v := range raw {
		seen[int(v)%n] = true
	}
	out := make(RowSet, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// universe sizes deliberately straddle word boundaries: exact multiples
// of 64, off-by-one around them, and a single partial word.
func universeOf(pick uint8) int {
	sizes := []int{1, 37, 63, 64, 65, 128, 200, 1000}
	return sizes[int(pick)%len(sizes)]
}

// TestBitmapRowSetRoundTrip is the lossless-conversion property:
// FromRowSet then ToRowSet returns the original sorted unique rows for
// every random set and universe.
func TestBitmapRowSetRoundTrip(t *testing.T) {
	f := func(raw []uint16, pick uint8) bool {
		n := universeOf(pick)
		rows := toRowSet(raw, n)
		got := FromRowSet(n, rows).ToRowSet()
		return reflect.DeepEqual(got, rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBitmapSetOpsAgree pins every bitmap operation to the merge-based
// RowSet equivalent on random sets: And↔Intersect, Or↔Union,
// AndNot↔Minus, plus Len, Contains, and Not against a scan.
func TestBitmapSetOpsAgree(t *testing.T) {
	f := func(rawA, rawB []uint16, pick uint8) bool {
		n := universeOf(pick)
		a, b := toRowSet(rawA, n), toRowSet(rawB, n)
		ba, bb := FromRowSet(n, a), FromRowSet(n, b)

		if !reflect.DeepEqual(ba.And(bb).ToRowSet(), a.Intersect(b)) {
			return false
		}
		if !reflect.DeepEqual(ba.Or(bb).ToRowSet(), a.Union(b)) {
			return false
		}
		if !reflect.DeepEqual(ba.AndNot(bb).ToRowSet(), a.Minus(b)) {
			return false
		}
		if ba.Len() != len(a) || bb.Len() != len(b) {
			return false
		}
		if ba.AndLen(bb) != len(a.Intersect(b)) {
			return false
		}
		if !reflect.DeepEqual(ba.Not().ToRowSet(), AllRows(n).Minus(a)) {
			return false
		}
		// RowSet.Contains is false outside the universe too, so the two
		// implementations must agree on every probe.
		for _, probe := range []int{-1, 0, n - 1, n, n + 63} {
			if ba.Contains(probe) != a.Contains(probe) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBitmapInPlaceOpsAgree checks the allocating and in-place variants
// produce the same sets.
func TestBitmapInPlaceOpsAgree(t *testing.T) {
	f := func(rawA, rawB []uint16, pick uint8) bool {
		n := universeOf(pick)
		a, b := toRowSet(rawA, n), toRowSet(rawB, n)
		ba, bb := FromRowSet(n, a), FromRowSet(n, b)
		if !reflect.DeepEqual(ba.Clone().AndWith(bb).ToRowSet(), ba.And(bb).ToRowSet()) {
			return false
		}
		return reflect.DeepEqual(ba.Clone().OrWith(bb).ToRowSet(), ba.Or(bb).ToRowSet())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapFullAndTailMasking(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 129} {
		full := FullBitmap(n)
		if full.Len() != n {
			t.Fatalf("FullBitmap(%d).Len() = %d", n, full.Len())
		}
		// Complement of full is empty even when the last word is partial.
		if got := full.Not().Len(); got != 0 {
			t.Fatalf("FullBitmap(%d).Not().Len() = %d, want 0", n, got)
		}
		empty := NewBitmap(n)
		if got := empty.Not().Len(); got != n {
			t.Fatalf("NewBitmap(%d).Not().Len() = %d, want %d", n, got, n)
		}
	}
}

func TestBitmapForEachAscending(t *testing.T) {
	rows := RowSet{0, 3, 63, 64, 65, 190}
	b := FromRowSet(200, rows)
	var got RowSet
	b.ForEach(func(r int) { got = append(got, r) })
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("ForEach visited %v, want %v", got, rows)
	}
}

func TestBitmapUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And across universes did not panic")
		}
	}()
	NewBitmap(64).And(NewBitmap(128))
}

// TestBitmapResize pins Resize against a row filter: shrinking keeps the
// members below the new universe (cutting array, packed and run tails
// mid-chunk and on chunk boundaries), growing keeps every member, and
// the result composes with sets over its new universe.
func TestBitmapResize(t *testing.T) {
	const n = 3*SegmentSize + 1234
	var sparse, dense RowSet
	for r := 0; r < n; r++ {
		if r%97 == 0 {
			sparse = append(sparse, r)
		}
		if r%3 != 0 {
			dense = append(dense, r)
		}
	}
	for _, b := range []*Bitmap{FromRowSet(n, sparse), FromRowSet(n, dense), FullBitmap(n), FromRowSet(n, dense).Freeze()} {
		members := b.ToRowSet()
		for _, m := range []int{1, 500, SegmentSize, SegmentSize + 1, 2*SegmentSize - 1, n, n + 70000} {
			got := b.Resize(m)
			if got.Universe() != m {
				t.Fatalf("Resize(%d).Universe() = %d", m, got.Universe())
			}
			want := members.Filter(func(r int) bool { return r < m })
			if rows := got.ToRowSet(); !reflect.DeepEqual(rows, want) && len(rows)+len(want) > 0 {
				t.Fatalf("Resize(%d) holds %d rows, want %d", m, len(rows), len(want))
			}
			if got.AndLen(FullBitmap(m)) != len(want) {
				t.Fatalf("Resize(%d) does not compose with a %d-row set", m, m)
			}
		}
	}
}
