// Benchmark of encoding a CAD View the way a /cad body carries it:
// CADView.AppendJSON against the reference, encoding/json over the
// view's wire structs behind a json.Marshaler, which is how a view was
// encoded before AppendJSON (reflection, then the compaction pass
// encoding/json makes over every Marshaler's output). The views are
// BenchmarkCADColdBuild's eight zipf/... shapes on the 1M-row Zipf
// fixture and four cars-40k/... views of the 40K featured cars in
// session-mix's shape (pivot Make over the five makes, K 3, four
// Compare Attributes). Each sub-benchmark reports the view's encoded
// size next to ns/op, and the two encodings are checked to be the same
// bytes before timing.
package dbexplorer_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"dbexplorer/internal/core"
	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/facet"
)

// wireView mirrors the CAD View's wire form with exported fields, so
// encoding/json encodes it by reflection.
type wireView struct {
	Name         string   `json:"name,omitempty"`
	Pivot        string   `json:"pivot"`
	CompareAttrs []string `json:"compareAttrs"`
	K            int      `json:"k"`
	Tau          float64  `json:"tau"`
	Rows         []*struct {
		Value  string `json:"value"`
		Count  int    `json:"count"`
		IUnits []*struct {
			PivotValue  string         `json:"pivotValue"`
			Rank        int            `json:"rank"`
			Size        int            `json:"size"`
			Score       float64        `json:"score"`
			Labels      []core.Label   `json:"labels"`
			Rows        dataset.RowSet `json:"rows,omitempty"`
			Frequencies [][]float64    `json:"frequencies"`
		} `json:"iunits"`
	} `json:"rows"`
}

// wireMarshaler puts a wireView behind MarshalJSON.
type wireMarshaler struct{ v *wireView }

func (m wireMarshaler) MarshalJSON() ([]byte, error) { return json.Marshal(m.v) }

var encodeSink []byte

func BenchmarkEncodeCADView(b *testing.B) {
	type namedView struct {
		name string
		view *core.CADView
	}
	var views []namedView
	for _, shape := range zipfColdShapes(b) {
		view, _, err := core.BuildBitmap(context.Background(), shape.v, shape.rows, shape.cfg)
		if err != nil {
			b.Fatal(err)
		}
		views = append(views, namedView{shape.name, view})
	}
	fixtures(b)
	for _, f := range []struct {
		name, attr string
		values     []string
	}{
		{"all", "", nil},
		{"suv", "BodyType", []string{"SUV"}},
		{"red-or-blue", "Color", []string{"Red", "Blue"}},
		{"manual", "Transmission", []string{"Manual"}},
	} {
		sess := facet.NewSessionBitmap(carView, dataset.FullBitmap(carView.Rows()))
		if f.attr != "" {
			if err := sess.SelectValues(f.attr, f.values); err != nil {
				b.Fatal(err)
			}
		}
		view, _, err := core.BuildBitmap(context.Background(), carView, sess.Bitmap(), core.Config{
			Pivot: "Make", PivotValues: datagen.FeaturedMakes, K: 3, MaxCompare: 4, Seed: 1, Parallel: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		views = append(views, namedView{"cars-40k/" + f.name, view})
	}

	for _, nv := range views {
		body, err := nv.view.AppendJSON(nil, "cad-1")
		if err != nil {
			b.Fatal(err)
		}
		var wire wireView
		if err := json.Unmarshal(body, &wire); err != nil {
			b.Fatal(err)
		}
		encodeRef := func() []byte {
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(wireMarshaler{&wire}); err != nil {
				b.Fatal(err)
			}
			return buf.Bytes()
		}
		if ref := encodeRef(); !bytes.Equal(ref[:len(ref)-1], body) {
			b.Fatalf("%s: AppendJSON differs from encoding/json", nv.name)
		}
		b.Run(nv.name+"/append", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encodeSink, _ = nv.view.AppendJSON(nil, "cad-1")
			}
			b.ReportMetric(float64(len(body)), "view-bytes")
		})
		b.Run(nv.name+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encodeSink = encodeRef()
			}
			b.ReportMetric(float64(len(body)), "view-bytes")
		})
	}
}
