// Package viewcache provides the serving core's result cache: a
// fixed-capacity LRU keyed by canonical request fingerprints, plus the
// fingerprinting helper itself. Exploratory sessions repeat and refine
// the same queries (the paper's §5/§6.1 workload), so identical CAD View
// requests hit the cache instead of rebuilding.
//
// Keys are strings of the form "<scope>\x00<fingerprint>"; MarkStaleScope
// flags every entry of one scope stale, which is how dataset
// re-registration retires that dataset's views without touching the
// others.
package viewcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// scopeSep separates the scope prefix from the fingerprint in cache keys.
const scopeSep = "\x00"

// Key addresses one cache entry.
type Key string

// NewKey builds a cache key from a scope (e.g. the dataset name) and a
// fingerprint of everything else that determines the result.
func NewKey(scope, fingerprint string) Key {
	return Key(scope + scopeSep + fingerprint)
}

// Fingerprint canonically hashes its parts: each part is JSON-encoded
// (deterministic for maps too — encoding/json sorts object keys) and the
// concatenation is SHA-256 hashed. Callers must canonicalize
// order-insensitive inputs (e.g. sort filter values) before fingerprinting.
func Fingerprint(parts ...any) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i, p := range parts {
		if err := enc.Encode(p); err != nil {
			return "", fmt.Errorf("viewcache: fingerprint part %d: %w", i, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Cache is a thread-safe fixed-capacity LRU.
type Cache[V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *entry[V]
	m   map[Key]*list.Element
}

type entry[V any] struct {
	key   Key
	val   V
	stale bool // see MarkStaleScope / GetStale
}

// New returns an LRU holding at most capacity entries. A capacity <= 0
// disables the cache: Put is a no-op and Get always misses.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{cap: capacity, ll: list.New(), m: make(map[Key]*list.Element)}
}

// Cap returns the configured capacity.
func (c *Cache[V]) Cap() int { return c.cap }

// Len returns the current entry count.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Get returns the cached value and marks it most recently used. Entries
// marked stale (MarkStaleScope) miss here — fresh reads never observe an
// outdated result — but remain reachable through GetStale for callers
// that would rather degrade than shed.
func (c *Cache[V]) Get(k Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok && !el.Value.(*entry[V]).stale {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// GetStale returns the cached value even if it has been marked stale,
// along with the staleness flag. Graceful degradation uses this: when
// the build path is saturated, serving a slightly-outdated view beats a
// 503. The entry is marked most recently used either way.
func (c *Cache[V]) GetStale(k Key) (v V, stale, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*entry[V])
		return e.val, e.stale, true
	}
	var zero V
	return zero, false, false
}

// Put inserts or replaces the value for k, evicting the least recently
// used entry when over capacity.
func (c *Cache[V]) Put(k Key, v V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		e := el.Value.(*entry[V])
		e.val = v
		e.stale = false // a fresh value supersedes any stale mark
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&entry[V]{key: k, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*entry[V]).key)
	}
}

// MarkStaleScope flags every entry of the scope as stale instead of
// dropping it, returning how many were flagged (already-stale entries
// count too). Stale entries miss Get but stay available via GetStale
// until evicted or overwritten by Put — the degradation window between
// "dataset changed" and "views rebuilt".
func (c *Cache[V]) MarkStaleScope(scope string) int {
	prefix := Key(scope + scopeSep)
	c.mu.Lock()
	defer c.mu.Unlock()
	marked := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[V])
		if len(e.key) >= len(prefix) && e.key[:len(prefix)] == prefix {
			e.stale = true
			marked++
		}
	}
	return marked
}
