// Benchmark of one cold CAD View build in the shape of cmd/loadgen's
// cad-cold workload: the 1M-row Zipf fixture (loadgen's zipf-1m at seed
// 1), pivot c0 over its six head values, four Compare Attributes, K 3
// and 6, pivot rows built in parallel, and one- and two-filter results
// near 2% and 8% of the rows. Every posting is warmed before the timer,
// so an iteration pays what a /cad with a new fingerprint pays on a warm
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
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/facet"
)

var cadSink *core.CADView

// cadColdShape is one cad-cold-shaped build: a filter result of the
// Zipf fixture and the build's config.
type cadColdShape struct {
	name string
	rows *dataset.Bitmap
	cfg  core.Config
}

// cadColdShapes returns the eight cad-cold shapes, one- and two-filter
// results at K 3 and 6, with every posting of the fixture warmed.
func cadColdShapes(b *testing.B) []cadColdShape {
	zipfFixture(b)
	for _, c := range zipfView.Columns() {
		c.Postings()
	}
	type sel struct {
		attr   string
		values []string
	}
	var shapes []cadColdShape
	for _, result := range [][]sel{
		{{"c1", []string{"v0006"}}},
		{{"c1", []string{"v0002", "v0009"}}},
		{{"c1", []string{"v0002"}}, {"c2", []string{"v0000"}}},
		{{"c1", []string{"v0000"}}, {"c2", []string{"v0000"}}},
	} {
		sess := facet.NewSessionBitmap(zipfView, dataset.FullBitmap(zipfView.Rows()))
		for _, s := range result {
			if err := sess.SelectValues(s.attr, s.values); err != nil {
				b.Fatal(err)
			}
		}
		rows := sess.Bitmap()
		for _, k := range []int{3, 6} {
			shapes = append(shapes, cadColdShape{
				name: fmt.Sprintf("filters=%d/rows=%d/k=%d", len(result), rows.Len(), k),
				rows: rows,
				cfg: core.Config{
					Pivot:       "c0",
					PivotValues: []string{"v0000", "v0001", "v0002", "v0003", "v0004", "v0005"},
					MaxCompare:  4,
					K:           k,
					Seed:        1,
					Parallel:    true,
				},
			})
		}
	}
	return shapes
}

func BenchmarkCADColdBuild(b *testing.B) {
	for _, shape := range cadColdShapes(b) {
		b.Run(shape.name, func(b *testing.B) {
			stages := map[string][]time.Duration{}
			for i := 0; i < b.N; i++ {
				view, tm, err := core.BuildBitmap(context.Background(), zipfView, shape.rows, shape.cfg)
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
