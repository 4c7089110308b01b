// Benchmarks regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus ablation
// benches for the design choices DESIGN.md calls out. cmd/experiments
// prints the corresponding human-readable reports with the paper's
// numbers alongside.
package dbexplorer_test

import (
	"fmt"
	"sync"
	"testing"

	"dbexplorer"
	"dbexplorer/internal/bayesnet"
	"dbexplorer/internal/cluster"
	"dbexplorer/internal/core"
	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/dtree"
	"dbexplorer/internal/fd"
	"dbexplorer/internal/featsel"
	"dbexplorer/internal/histogram"
	"dbexplorer/internal/simuser"
	"dbexplorer/internal/topk"
)

// Shared fixtures, built once: the featured-makes car table at the
// paper's 40K scale and the Mushroom table.
var (
	fixOnce  sync.Once
	carView  *dataview.View
	carRows  dataset.RowSet
	mushView *dataview.View
	mushRows dataset.RowSet
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		cars := datagen.UsedCarsFeatured(40000, 1)
		v, err := dataview.New(cars, dataview.Options{})
		if err != nil {
			panic(err)
		}
		carView = v
		carRows = dataset.AllRows(cars.NumRows())

		mush := datagen.MushroomN(8124, 1)
		mv, err := dataview.New(mush, dataview.Options{})
		if err != nil {
			panic(err)
		}
		mushView = mv
		mushRows = dataset.AllRows(mush.NumRows())
	})
}

// fig8Config mirrors the paper's worst-case setup: |I|=10 candidate
// Compare Attributes, l=15 generated IUnits, k=6 kept, |V|=5 makes.
func fig8Config(l int) core.Config {
	return core.Config{Pivot: "Make", MaxCompare: 10, K: 6, L: l, Seed: 1}
}

// BenchmarkTable1CADView regenerates Table 1: the five-make CAD View for
// Mary's SUV query through the full CADQL path.
func BenchmarkTable1CADView(b *testing.B) {
	cars := datagen.UsedCars(40000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := dbexplorer.NewSession()
		sess.Seed = 1
		if err := sess.Register(cars); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Exec(`CREATE CADVIEW CompareMakes AS
			SET pivot = Make SELECT Price FROM UsedCars
			WHERE Mileage BETWEEN 10K AND 30K AND Transmission = Automatic AND
			      BodyType = SUV AND Make IN (Jeep, Toyota, Honda, Ford, Chevrolet)
			LIMIT COLUMNS 5 IUNITS 3`); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStudyTask benches one user-study task run per interface
// (Figures 2-7 pair a quality and a time reading of the same runs).
func benchStudyTask(b *testing.B, kind simuser.TaskKind) {
	fixtures(b)
	u := simuser.User{ID: 1, Speed: 1, Diligence: 0.8}
	for _, iface := range []simuser.Interface{simuser.Solr, simuser.TPFacet} {
		b.Run(iface.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				switch kind {
				case simuser.Classifier:
					_, err = simuser.RunClassifier(mushView, simuser.ClassifierTask{
						ClassAttr: "Bruises", TargetValue: "true", Variant: "bench",
					}, u, iface, int64(i))
				case simuser.SimilarPair:
					_, err = simuser.RunSimilarPair(mushView, simuser.SimilarPairTask{
						Attr: "GillColor", Values: []string{"buff", "white", "brown", "green"}, Variant: "bench",
					}, u, iface, int64(i))
				case simuser.AltCond:
					_, err = simuser.RunAltCond(mushView, simuser.AltCondTask{
						Given: []struct{ Attr, Value string }{
							{"StalkShape", "enlarged"}, {"SporePrintColor", "chocolate"},
						}, Variant: "bench",
					}, u, iface, int64(i))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2SimpleClassifier regenerates the Figures 2-3 task runs.
func BenchmarkFig2SimpleClassifier(b *testing.B) { benchStudyTask(b, simuser.Classifier) }

// BenchmarkFig4SimilarPair regenerates the Figures 4-5 task runs.
func BenchmarkFig4SimilarPair(b *testing.B) { benchStudyTask(b, simuser.SimilarPair) }

// BenchmarkFig6AltCondition regenerates the Figures 6-7 task runs.
func BenchmarkFig6AltCondition(b *testing.B) { benchStudyTask(b, simuser.AltCond) }

// BenchmarkFig8ResultSize measures worst-case CAD View construction time
// against result-set size (Figure 8's x-axis).
func BenchmarkFig8ResultSize(b *testing.B) {
	fixtures(b)
	for _, size := range []int{5000, 10000, 20000, 40000} {
		b.Run(fmt.Sprintf("%dK", size/1000), func(b *testing.B) {
			rows := carRows[:size]
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Build(carView, rows, fig8Config(15)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9GeneratedIUnits sweeps the number of generated IUnits l
// at a fixed 10K result (Figure 9).
func BenchmarkFig9GeneratedIUnits(b *testing.B) {
	fixtures(b)
	rows := carRows[:10000]
	for _, l := range []int{1, 5, 10, 15} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Build(carView, rows, fig8Config(l)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10CompareAttrs sweeps the number of Compare Attributes at
// a fixed 10K result (Figure 10).
func BenchmarkFig10CompareAttrs(b *testing.B) {
	fixtures(b)
	rows := carRows[:10000]
	attrs := []string{"Model", "BodyType", "Price", "Mileage", "Year", "Engine", "Drivetrain", "Transmission", "Color", "FuelEconomy"}
	for _, nAttrs := range []int{1, 3, 5, 10} {
		b.Run(fmt.Sprintf("I=%d", nAttrs), func(b *testing.B) {
			cfg := core.Config{
				Pivot: "Make", CompareAttrs: attrs[:nAttrs], MaxCompare: nAttrs,
				K: 6, L: 10, Seed: 1,
			}
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Build(carView, rows, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpt1Sampling contrasts full-result Compare Attribute
// selection with the §6.3 sampled variant.
func BenchmarkOpt1Sampling(b *testing.B) {
	fixtures(b)
	candidates := []string{"Model", "BodyType", "Price", "Mileage", "Year", "Engine", "Drivetrain", "Transmission", "Color", "FuelEconomy"}
	for name, rows := range map[string]dataset.RowSet{
		"full40K":  carRows,
		"sample5K": carRows[:5000],
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := featsel.ChiSquare(carView, rows, "Make", candidates); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationTopK contrasts the exact div-astar-style search with
// the greedy baseline the paper warns about.
func BenchmarkAblationTopK(b *testing.B) {
	scores := make([]float64, 15)
	for i := range scores {
		scores[i] = float64((i*7)%13 + 1)
	}
	conflicts := topk.NewConflicts(15, func(i, j int) bool { return (i+j)%3 == 0 })
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := topk.Exact(scores, conflicts, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := topk.Greedy(scores, conflicts, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRanker contrasts Compare Attribute rankers on the
// Mushroom class.
func BenchmarkAblationRanker(b *testing.B) {
	fixtures(b)
	var candidates []string
	for _, a := range datagen.MushroomSchema() {
		if a.Name != "Class" {
			candidates = append(candidates, a.Name)
		}
	}
	b.Run("chisquare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := featsel.ChiSquare(mushView, mushRows, "Class", candidates); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mutualinfo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := featsel.MutualInformation(mushView, mushRows, "Class", candidates); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("relieff", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := featsel.ReliefF(mushView, mushRows[:2000], "Class", candidates, featsel.ReliefFOptions{Samples: 100, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBinning contrasts the three histogram constructions
// on the 40K Price column.
func BenchmarkAblationBinning(b *testing.B) {
	fixtures(b)
	price, err := carView.Table().NumByName("Price")
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []histogram.Method{histogram.EquiWidth, histogram.EquiDepth, histogram.VOptimal} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := histogram.Build(price.Values(), 5, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationClustering times one-hot k-means (the paper's choice
// via Weka SimpleKMeans) on 8,000 car rows.
func BenchmarkAblationClustering(b *testing.B) {
	fixtures(b)
	attrs := []string{"Model", "Engine", "Drivetrain", "Price", "Year"}
	sparse, _, err := cluster.EncodeSparse(carView, carRows[:8000].Bitmap(carView.Rows()), attrs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("kmeans-sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cluster.KMeans(sparse, 10, cluster.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAutoL contrasts the fixed l = 1.5k rule with the
// §2.2.2 quality-swept auto-l policy.
func BenchmarkAblationAutoL(b *testing.B) {
	fixtures(b)
	rows := carRows[:10000]
	for name, cfg := range map[string]core.Config{
		"fixedL": {Pivot: "Make", K: 3, Seed: 1},
		"autoL":  {Pivot: "Make", K: 3, AutoL: true, Seed: 1},
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Build(carView, rows, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelBuild measures the per-pivot-value parallel build
// against the sequential one (same result, different wall clock).
func BenchmarkParallelBuild(b *testing.B) {
	fixtures(b)
	for name, parallel := range map[string]bool{"sequential": false, "parallel": true} {
		b.Run(name, func(b *testing.B) {
			cfg := fig8Config(15)
			cfg.Parallel = parallel
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Build(carView, carRows, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSummarizer contrasts the CAD View against the
// related-work decision-tree categorization on the same result set.
func BenchmarkAblationSummarizer(b *testing.B) {
	fixtures(b)
	rows := carRows[:10000]
	b.Run("cadview", func(b *testing.B) {
		cfg := core.Config{Pivot: "Make", K: 3, Seed: 1}
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Build(carView, rows, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dtree", func(b *testing.B) {
		cands := []string{"Model", "Engine", "Drivetrain", "Price", "Year"}
		for i := 0; i < b.N; i++ {
			if _, err := dtree.Build(carView, rows, "Make", cands, dtree.Options{MaxDepth: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bayesnet", func(b *testing.B) {
		attrs := []string{"Make", "Model", "Engine", "Drivetrain", "Price", "Year"}
		for i := 0; i < b.N; i++ {
			if _, err := bayesnet.Learn(carView, rows, attrs, bayesnet.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fds", func(b *testing.B) {
		attrs := []string{"Make", "Model", "Engine", "Drivetrain", "BodyType"}
		for i := 0; i < b.N; i++ {
			if _, err := fd.Discover(carView, rows, attrs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSampledClustering measures §6.3's sampled center
// fitting against the full fit.
func BenchmarkAblationSampledClustering(b *testing.B) {
	fixtures(b)
	attrs := []string{"Model", "Engine", "Drivetrain", "Price", "Year"}
	sparse, _, err := cluster.EncodeSparse(carView, carRows.Bitmap(carView.Rows()), attrs)
	if err != nil {
		b.Fatal(err)
	}
	for name, sample := range map[string]int{"full": 0, "sample2K": 2000} {
		b.Run(name+"-sparse", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cluster.KMeans(sparse, 10, cluster.Options{Seed: 1, SampleSize: sample}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
