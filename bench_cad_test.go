// Benchmark of one cold CAD View build in the shapes of the two
// fixtures cmd/loadgen's /cad traffic runs on. zipf/... is the cad-cold
// workload: the 1M-row Zipf fixture (loadgen's zipf-1m at seed 1), pivot
// c0 over its six head values, four Compare Attributes, K 3 and 6, and
// one- and two-filter results near 2% and 8% of the rows. cars/... is
// session-mix's /cad: the 40K-row featured-makes cars fixture, pivot
// Make over datagen.FeaturedMakes, four Compare Attributes, K 3, and
// one- and two-filter results near 5% and 50% of the rows (no single
// value of a filter attribute is near 5%, so the one-filter small shape
// is one Color, 10%). Both build their pivot rows in parallel, as the
// server does. Every posting is warmed before the timer, so an
// iteration pays what a /cad with a new fingerprint pays on a warm
// server. Besides ns/op it reports the median over the iterations of
// each core.Timings stage and each Lloyd phase, in milliseconds.
package dbexplorer_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"dbexplorer/internal/core"
	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/facet"
)

var cadSink *core.CADView

// cadColdShape is one cold build: a filter result of a fixture's view
// and the build's config.
type cadColdShape struct {
	name string
	v    *dataview.View
	rows *dataset.Bitmap
	cfg  core.Config
}

// cadSel is one facet filter: an attribute and the values it keeps.
type cadSel struct {
	attr   string
	values []string
}

// cadShapes returns one shape per result and K over v, whose postings
// are all warmed first; cfg is the build's config without K.
func cadShapes(b *testing.B, fixture string, v *dataview.View, results [][]cadSel, ks []int, cfg core.Config) []cadColdShape {
	for _, c := range v.Columns() {
		c.Postings()
	}
	var shapes []cadColdShape
	for _, result := range results {
		sess := facet.NewSessionBitmap(v, dataset.FullBitmap(v.Rows()))
		for _, s := range result {
			if err := sess.SelectValues(s.attr, s.values); err != nil {
				b.Fatal(err)
			}
		}
		rows := sess.Bitmap()
		for _, k := range ks {
			cfg.K = k
			shapes = append(shapes, cadColdShape{
				name: fmt.Sprintf("%s/filters=%d/rows=%d/k=%d", fixture, len(result), rows.Len(), k),
				v:    v,
				rows: rows,
				cfg:  cfg,
			})
		}
	}
	return shapes
}

// zipfColdShapes returns the eight zipf shapes: one- and two-filter
// results at K 3 and 6.
func zipfColdShapes(b *testing.B) []cadColdShape {
	zipfFixture(b)
	return cadShapes(b, "zipf", zipfView, [][]cadSel{
		{{"c1", []string{"v0006"}}},
		{{"c1", []string{"v0002", "v0009"}}},
		{{"c1", []string{"v0002"}}, {"c2", []string{"v0000"}}},
		{{"c1", []string{"v0000"}}, {"c2", []string{"v0000"}}},
	}, []int{3, 6}, core.Config{
		Pivot:       "c0",
		PivotValues: []string{"v0000", "v0001", "v0002", "v0003", "v0004", "v0005"},
		MaxCompare:  4,
		Seed:        1,
		Parallel:    true,
	})
}

// carsColdShapes returns the four cars shapes: one- and two-filter
// results at K 3.
func carsColdShapes(b *testing.B) []cadColdShape {
	fixtures(b)
	return cadShapes(b, "cars", carView, [][]cadSel{
		{{"Color", []string{"Red"}}},
		{{"Drivetrain", []string{"2WD"}}},
		{{"BodyType", []string{"SUV"}}, {"Color", []string{"Red"}}},
		{{"Transmission", []string{"Automatic"}}, {"Drivetrain", []string{"2WD"}}},
	}, []int{3}, core.Config{
		Pivot:       "Make",
		PivotValues: datagen.FeaturedMakes,
		MaxCompare:  4,
		Seed:        1,
		Parallel:    true,
	})
}

func BenchmarkCADColdBuild(b *testing.B) {
	for _, shape := range append(zipfColdShapes(b), carsColdShapes(b)...) {
		b.Run(shape.name, func(b *testing.B) {
			stages := map[string][]time.Duration{}
			for i := 0; i < b.N; i++ {
				view, tm, err := core.BuildBitmap(context.Background(), shape.v, shape.rows, shape.cfg)
				if err != nil {
					b.Fatal(err)
				}
				cadSink = view
				for _, st := range tm.Stages() {
					stages[st.Name] = append(stages[st.Name], st.D)
				}
				for _, st := range tm.ClusterDetail.Stages() {
					stages["cluster_"+st.Name] = append(stages["cluster_"+st.Name], st.D)
				}
			}
			b.StopTimer()
			for name, ds := range stages {
				sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
				b.ReportMetric(float64(ds[len(ds)/2])/float64(time.Millisecond), name+"-ms")
			}
		})
	}
}
