package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForChunksCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 10_000} {
		seen := make([]int32, n)
		ForChunks(n, 8, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad chunk [%d, %d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForChunksSmallRangeRunsInline(t *testing.T) {
	// A range smaller than two minChunks must run as a single chunk.
	calls := 0
	ForChunks(10, 8, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Errorf("chunk [%d, %d), want [0, 10)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 64, 1000} {
		seen := make([]int32, n)
		Do(n, func(i int) {
			atomic.AddInt32(&seen[i], 1)
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, c)
			}
		}
	}
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Errorf("Workers() = %d", Workers())
	}
}

func TestDoPropagatesWorkerPanic(t *testing.T) {
	// A panic in one worker must surface on the caller's goroutine — with
	// the original panic value, so recovery layers can type-switch on it —
	// instead of crashing the process from inside the pool.
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("worker panic was swallowed")
		}
		if s, ok := v.(string); !ok || s != "boom-7" {
			t.Fatalf("recovered %v (%T), want the original panic value", v, v)
		}
	}()
	Do(64, func(i int) {
		if i == 7 {
			panic("boom-7")
		}
	})
	t.Fatal("Do returned normally despite a panicking worker")
}

func TestForChunksPropagatesWorkerPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic was swallowed")
		}
	}()
	ForChunks(10_000, 64, func(lo, hi int) {
		if lo <= 5000 && 5000 < hi {
			panic("chunk panic")
		}
	})
	t.Fatal("ForChunks returned normally despite a panicking worker")
}
