package cluster

import (
	"context"
	"errors"
	"testing"
)

func ctxTestPoints() *SparsePoints {
	// 6 points over one attribute with 3 distinct codes.
	return &SparsePoints{
		Codes:   []int32{0, 1, 2, 0, 1, 2},
		N:       6,
		A:       1,
		Dim:     3,
		Offsets: []int{0, 3},
	}
}

func TestKMeansContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := KMeansContext(ctx, ctxTestPoints(), 2, Options{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestKMeansContextMatchesKMeans(t *testing.T) {
	plain, err := KMeans(ctxTestPoints(), 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := KMeansContext(context.Background(), ctxTestPoints(), 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if inertia(ctxTestPoints(), plain) != inertia(ctxTestPoints(), withCtx) || plain.K != withCtx.K {
		t.Errorf("results diverge: %+v vs %+v", plain, withCtx)
	}
	for i := range plain.Assign {
		if plain.Assign[i] != withCtx.Assign[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
}
