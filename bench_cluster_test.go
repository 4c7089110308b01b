// Benchmarks for the bound-pruned clustering kernel (DESIGN.md §16):
// the Lloyd kernel in isolation (pruned vs the exhaustive reference),
// concurrent restarts, and end-to-end CAD View builds over a correlated
// fixture whose latent-class structure is what the pruning bounds
// exploit. BENCH_cluster.json records the before/after numbers.
package dbexplorer_test

import (
	"testing"

	"dbexplorer/internal/cluster"
	"dbexplorer/internal/core"
	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// clusterKernelPoints encodes the Figure-8 compare attributes over the
// first 8000 car rows — the same shape the largest pivot value of the
// 40K sweep feeds the kernel.
func clusterKernelPoints(b *testing.B) *cluster.SparsePoints {
	b.Helper()
	fixtures(b)
	attrs := []string{"Model", "Drivetrain", "FuelEconomy", "BodyType", "Engine", "Price"}
	sp, _, err := cluster.EncodeSparse(carView, carRows[:8000].Bitmap(carView.Rows()), attrs)
	if err != nil {
		b.Fatal(err)
	}
	return sp
}

// corrClusterTable is a 200K-row correlated-group fixture (ROADMAP item
// 4a): column values travel together through latent classes, giving the
// duplicate-collapsing kernel realistic cluster structure instead of
// independent-Zipf noise.
func corrClusterTable() *dataset.Table {
	groups := []datagen.CorrGroup{
		{Classes: 24, S: 1.3, Noise: 0.05, Cols: []datagen.CorrColumn{
			{Name: "make", Card: 40}, {Name: "model", Card: 400}, {Name: "trim", Card: 60},
		}},
		{Classes: 12, S: 1.4, Noise: 0.1, Cols: []datagen.CorrColumn{
			{Name: "region", Card: 16}, {Name: "dealer", Card: 200},
		}},
	}
	return datagen.CorrTable("corrcars", 200_000, groups, 1)
}

// BenchmarkClusterKernel isolates the Lloyd kernel (seeding +
// iterations) on the Figure-8 shape at l=15. The duplicate-collapse is
// cached on the fixture after the first call, so the timing is pure
// kernel time.
func BenchmarkClusterKernel(b *testing.B) {
	sp := clusterKernelPoints(b)
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cluster.KMeans(sp, 15, cluster.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClusterCorrBuild is the end-to-end CAD View build over the
// correlated 200K fixture — clustering dominates this build, so it
// tracks the kernel win at macro scale with realistic structure.
func BenchmarkClusterCorrBuild(b *testing.B) {
	tbl := corrClusterTable()
	v, err := dataview.New(tbl, dataview.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rows := dataset.AllRows(tbl.NumRows())
	cfg := core.Config{Pivot: "make", MaxCompare: 4, K: 6, L: 12, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Build(v, rows, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
