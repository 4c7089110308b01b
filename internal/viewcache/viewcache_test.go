package viewcache

import (
	"fmt"
	"testing"
)

func TestFingerprintDeterministicAndSensitive(t *testing.T) {
	a1, err := Fingerprint([]string{"x", "y"}, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Fingerprint([]string{"x", "y"}, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Errorf("same parts, different fingerprints: %s vs %s", a1, a2)
	}
	for i, parts := range [][]any{
		{[]string{"x", "z"}, 3, true}, // value change
		{[]string{"x", "y"}, 4, true}, // scalar change
		{[]string{"x", "y"}, 3},       // arity change
	} {
		b, err := Fingerprint(parts...)
		if err != nil {
			t.Fatal(err)
		}
		if b == a1 {
			t.Errorf("variant %d collides with the original", i)
		}
	}
	if _, err := Fingerprint(func() {}); err == nil {
		t.Error("unencodable part: want error")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New[int](2)
	c.Put(NewKey("s", "a"), 1)
	c.Put(NewKey("s", "b"), 2)
	// Touch "a" so "b" is the eviction victim.
	if v, ok := c.Get(NewKey("s", "a")); !ok || v != 1 {
		t.Fatalf("get a = %d, %v", v, ok)
	}
	c.Put(NewKey("s", "c"), 3)
	if _, ok := c.Get(NewKey("s", "b")); ok {
		t.Error("least recently used entry survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(NewKey("s", k)); !ok {
			t.Errorf("entry %q evicted out of order", k)
		}
	}
	if c.Len() != 2 || c.Cap() != 2 {
		t.Errorf("len = %d, cap = %d", c.Len(), c.Cap())
	}
	// Replacing an existing key must not grow the cache.
	c.Put(NewKey("s", "a"), 10)
	if v, _ := c.Get(NewKey("s", "a")); v != 10 || c.Len() != 2 {
		t.Errorf("replace: v = %d, len = %d", v, c.Len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := New[string](0)
	c.Put(NewKey("s", "a"), "x")
	if _, ok := c.Get(NewKey("s", "a")); ok {
		t.Error("zero-capacity cache stored an entry")
	}
}

func TestInvalidateScope(t *testing.T) {
	c := New[int](10)
	for i := 0; i < 3; i++ {
		c.Put(NewKey("cars", fmt.Sprintf("f%d", i)), i)
	}
	c.Put(NewKey("hotels", "f0"), 99)
	// A dataset named like a prefix of another must not be swept along.
	c.Put(NewKey("car", "f0"), 7)

	if n := c.MarkStaleScope("cars"); n != 3 {
		t.Errorf("marked %d entries, want 3", n)
	}
	if _, ok := c.Get(NewKey("cars", "f1")); ok {
		t.Error("invalidated entry still served fresh")
	}
	if v, ok := c.Get(NewKey("hotels", "f0")); !ok || v != 99 {
		t.Error("other scope was invalidated")
	}
	if v, ok := c.Get(NewKey("car", "f0")); !ok || v != 7 {
		t.Error("prefix-named scope was invalidated")
	}
}

func TestMarkStaleScope(t *testing.T) {
	c := New[int](8)
	a1 := NewKey("a", "f1")
	a2 := NewKey("a", "f2")
	b1 := NewKey("b", "f1")
	c.Put(a1, 1)
	c.Put(a2, 2)
	c.Put(b1, 3)

	if marked := c.MarkStaleScope("a"); marked != 2 {
		t.Fatalf("marked %d entries, want 2", marked)
	}
	// Stale entries miss Get...
	if _, ok := c.Get(a1); ok {
		t.Fatal("Get returned a stale entry")
	}
	// ...but other scopes are untouched...
	if v, ok := c.Get(b1); !ok || v != 3 {
		t.Fatalf("unrelated scope affected: %d, %v", v, ok)
	}
	// ...and GetStale still serves them, flagged.
	v, stale, ok := c.GetStale(a1)
	if !ok || !stale || v != 1 {
		t.Fatalf("GetStale = (%d, %v, %v), want (1, true, true)", v, stale, ok)
	}
	// A fresh GetStale on a live entry reports stale=false.
	if _, stale, ok := c.GetStale(b1); !ok || stale {
		t.Fatalf("GetStale on a fresh entry reported stale=%v, ok=%v", stale, ok)
	}
	// Put supersedes the stale mark.
	c.Put(a1, 10)
	if v, ok := c.Get(a1); !ok || v != 10 {
		t.Fatalf("Put did not clear staleness: %d, %v", v, ok)
	}
	// Entries still count toward capacity and remain evictable.
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestStaleEntriesEvictNormally(t *testing.T) {
	c := New[int](2)
	k1, k2, k3 := NewKey("s", "1"), NewKey("s", "2"), NewKey("s", "3")
	c.Put(k1, 1)
	c.Put(k2, 2)
	c.MarkStaleScope("s")
	c.Put(k3, 3) // evicts the LRU stale entry
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, _, ok := c.GetStale(k1); ok {
		t.Fatal("LRU stale entry survived eviction")
	}
	if _, stale, ok := c.GetStale(k2); !ok || !stale {
		t.Fatalf("expected k2 to remain, stale: got %v, %v", stale, ok)
	}
}
