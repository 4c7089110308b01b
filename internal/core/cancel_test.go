package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"dbexplorer/internal/dataview"
)

func TestBuildContextPreCanceled(t *testing.T) {
	v, rows := miniCars(t, 500, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := BuildContext(ctx, v, rows, Config{Pivot: "Make", K: 2, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBuildContextDeadlineExceeded(t *testing.T) {
	v, rows := miniCars(t, 500, 2)
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	if _, _, err := BuildContext(ctx, v, rows, Config{Pivot: "Make", K: 2, Seed: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestBuildContextCanceledMidBuild cancels deterministically from inside
// the build — the Preference function fires after a pivot value's
// clustering, so the top-k and later pivot-row checkpoints must notice
// without any timer races — and verifies the parallel build's pool
// workers drain rather than leak.
func TestBuildContextCanceledMidBuild(t *testing.T) {
	v, rows := miniCars(t, 2000, 3)
	runtime.GC()
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Pivot: "Make", K: 3, Seed: 1, Parallel: true}
	cfg.Preference = func(pv *dataview.View, iu *IUnit) float64 {
		cancel()
		return ByClusterSize(pv, iu)
	}
	_, _, err := BuildContext(ctx, v, rows, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked after canceled build: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestBuildContextMatchesBuild pins the context plumbing to the
// bit-identical contract: checkpoints may abort a build, but they must
// never change its result.
func TestBuildContextMatchesBuild(t *testing.T) {
	v, rows := miniCars(t, 800, 4)
	cfg := Config{Pivot: "Make", K: 3, Seed: 7, Parallel: true}
	plain, _, err := Build(v, rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, _, err := BuildContext(context.Background(), v, rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if Render(plain, nil) != Render(withCtx, nil) {
		t.Error("BuildContext result differs from Build")
	}
}
