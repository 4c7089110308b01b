package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrSaturated reports that a Gate refused admission because its wait
// queue is already at the configured depth. Serving layers map it to
// load shedding (503 + Retry-After) instead of queueing unboundedly.
var ErrSaturated = errors.New("parallel: gate saturated")

// Gate is a bounded admission semaphore for request-shaped work: at most
// n holders at a time, with context-aware waiting and an optional bound
// on how many callers may queue behind a full gate. It layers on the
// same philosophy as the worker helpers — concurrency is bounded up
// front so load spikes queue instead of oversubscribing the CPU-heavy
// build path — and the queue bound keeps the queue itself from becoming
// the next unbounded resource under sustained overload.
type Gate struct {
	slots    chan struct{}
	waiters  atomic.Int64
	maxQueue atomic.Int64 // 0 = unbounded
}

// NewGate returns a gate admitting at most n concurrent holders. A
// non-positive n falls back to Workers(). The wait queue is unbounded
// until SetQueueDepth.
func NewGate(n int) *Gate {
	if n <= 0 {
		n = Workers()
	}
	return &Gate{slots: make(chan struct{}, n)}
}

// SetQueueDepth bounds how many callers may block in Acquire behind a
// full gate; further callers fail fast with ErrSaturated. A non-positive
// d removes the bound.
func (g *Gate) SetQueueDepth(d int) {
	if d < 0 {
		d = 0
	}
	g.maxQueue.Store(int64(d))
}

// Waiting returns how many callers are currently blocked in Acquire.
func (g *Gate) Waiting() int { return int(g.waiters.Load()) }

// Acquire blocks until a slot frees up or ctx is done, in which case it
// returns ctx's error without holding a slot. When the gate is full and
// the wait queue is at its configured depth it returns ErrSaturated
// immediately instead of queueing.
func (g *Gate) Acquire(ctx context.Context) error {
	// An already-expired context is refused even when slots are free —
	// select would otherwise pick a winner at random.
	if err := ctx.Err(); err != nil {
		return err
	}
	// Fast path: a free slot never counts as queueing.
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	if d := g.maxQueue.Load(); d > 0 && g.waiters.Load() >= d {
		return ErrSaturated
	}
	g.waiters.Add(1)
	defer g.waiters.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes a slot without blocking, reporting whether it got one.
func (g *Gate) TryAcquire() bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release frees a slot taken by Acquire or TryAcquire.
func (g *Gate) Release() {
	select {
	case <-g.slots:
	default:
		panic(fmt.Sprintf("parallel: Gate.Release without Acquire (capacity %d)", cap(g.slots)))
	}
}

// Drain blocks until every held slot is released or ctx is done — the
// graceful-shutdown barrier: stop admitting first, then Drain to wait
// out in-flight builds. It works by acquiring the gate's full capacity
// and releasing it again, so callers must not race Drain with new
// Acquires (shutdown sequences stop the listener before draining).
func (g *Gate) Drain(ctx context.Context) error {
	acquired := 0
	defer func() {
		for i := 0; i < acquired; i++ {
			g.Release()
		}
	}()
	for i := 0; i < cap(g.slots); i++ {
		select {
		case g.slots <- struct{}{}:
			acquired++
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// InUse returns the number of currently held slots.
func (g *Gate) InUse() int { return len(g.slots) }

// Capacity returns the admission bound.
func (g *Gate) Capacity() int { return cap(g.slots) }
