// Package parallel provides the bounded worker helpers shared by the
// CPU-heavy paths (clustering, feature ranking, per-pivot-value CAD View
// construction). All helpers cap concurrency at Workers() so callers
// never spawn one goroutine per work item — a high-cardinality pivot or
// a large candidate set runs on the same small pool as everything else.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the shared concurrency bound: the number of CPUs the Go
// runtime will actually run on.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// panicBox collects the first panic raised by a pool worker so the
// helper can re-raise it on the caller's goroutine. Without this, a
// panicking worker kills the whole process before any recovery
// middleware up the caller's stack (e.g. the HTTP serving layer) can
// turn it into an error response.
type panicBox struct {
	once sync.Once
	val  any
}

// capture records the panic value of the current goroutine, keeping the
// first one when several workers panic. It must be deferred.
func (p *panicBox) capture() {
	if r := recover(); r != nil {
		p.once.Do(func() { p.val = r })
	}
}

// rethrow re-raises the captured panic, if any, with its original value
// preserved so recovery layers can still type-switch on it.
func (p *panicBox) rethrow() {
	if p.val != nil {
		panic(p.val)
	}
}

// ForChunks splits [0, n) into at most Workers() contiguous chunks of at
// least minChunk items each and runs fn(lo, hi) for every chunk,
// blocking until all chunks are done. When the range is too small to
// fill two chunks the call runs inline on the caller's goroutine, so
// cheap inputs pay no synchronization cost. fn must be safe to call
// concurrently for disjoint ranges. If fn panics, the first panic is
// re-raised on the caller's goroutine after every chunk finishes.
func ForChunks(n, minChunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	chunks := n / minChunk
	if w := Workers(); chunks > w {
		chunks = w
	}
	if chunks <= 1 {
		fn(0, n)
		return
	}
	size := (n + chunks - 1) / chunks
	var pb panicBox
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer pb.capture()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	pb.rethrow()
}

// Do runs fn(0) … fn(n-1) with at most Workers() goroutines pulling
// indices from a shared counter, blocking until all calls return. Use it
// for independent tasks of uneven cost (e.g. one CAD View pivot row per
// index); results must be written to per-index slots by fn. If fn
// panics, a panicking worker stops pulling indices and the first panic
// is re-raised on the caller's goroutine after all workers finish.
func Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var pb panicBox
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for j := 0; j < w; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pb.capture()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	pb.rethrow()
}
