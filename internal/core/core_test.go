package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// miniCars builds a small used-car table with planted structure:
//   - Alpha and Beta makes have identical model lines (two segments:
//     small/V4/cheap/2WD and large/V8/expensive/4WD),
//   - Gamma make only sells large/V8/expensive/4WD,
//   - Color is uniform noise.
func miniCars(t *testing.T, n int, seed int64) (*dataview.View, dataset.RowSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := dataset.NewTable("cars", dataset.Schema{
		{Name: "Make", Kind: dataset.Categorical, Queriable: true},
		{Name: "Model", Kind: dataset.Categorical, Queriable: true},
		{Name: "Engine", Kind: dataset.Categorical, Queriable: true},
		{Name: "Drivetrain", Kind: dataset.Categorical, Queriable: true},
		{Name: "Price", Kind: dataset.Numeric, Queriable: true},
		{Name: "Color", Kind: dataset.Categorical, Queriable: true},
	})
	colors := []string{"Red", "Blue", "White", "Black"}
	addSegment := func(mk string, small bool) {
		color := colors[rng.Intn(len(colors))]
		if small {
			tbl.MustAppendRow(mk, mk+" Mini", "V4", "2WD", 15000+rng.Float64()*4000, color)
		} else {
			tbl.MustAppendRow(mk, mk+" Max", "V8", "4WD", 38000+rng.Float64()*6000, color)
		}
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0:
			addSegment("Alpha", true)
		case 1:
			addSegment("Alpha", false)
		case 2:
			addSegment("Beta", true)
		case 3:
			addSegment("Beta", false)
		case 4:
			addSegment("Gamma", false)
		}
	}
	v, err := dataview.New(tbl, dataview.Options{Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	return v, dataset.AllRows(tbl.NumRows())
}

func buildView(t *testing.T, cfg Config) (*CADView, *dataview.View) {
	t.Helper()
	v, rows := miniCars(t, 600, 42)
	view, _, err := Build(v, rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return view, v
}

func TestBuildBasics(t *testing.T) {
	view, _ := buildView(t, Config{Pivot: "Make", K: 2, Seed: 1})
	if view.Pivot != "Make" {
		t.Errorf("Pivot = %q", view.Pivot)
	}
	if len(view.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 makes", len(view.Rows))
	}
	if len(view.CompareAttrs) == 0 || len(view.CompareAttrs) > 5 {
		t.Errorf("CompareAttrs = %v", view.CompareAttrs)
	}
	for _, a := range view.CompareAttrs {
		if a == "Make" {
			t.Error("pivot leaked into Compare Attributes")
		}
	}
	if view.Tau <= 0 || view.Tau > float64(len(view.CompareAttrs)) {
		t.Errorf("Tau = %g", view.Tau)
	}
	// Rows ordered by descending count by default.
	for i := 1; i < len(view.Rows); i++ {
		if view.Rows[i].Count > view.Rows[i-1].Count {
			t.Errorf("rows not count-ordered: %d after %d", view.Rows[i].Count, view.Rows[i-1].Count)
		}
	}
}

func TestBuildIUnitInvariants(t *testing.T) {
	view, _ := buildView(t, Config{Pivot: "Make", K: 3, Seed: 2})
	for _, row := range view.Rows {
		if len(row.IUnits) == 0 || len(row.IUnits) > view.K {
			t.Fatalf("row %s has %d IUnits", row.Value, len(row.IUnits))
		}
		seen := map[int]bool{}
		total := 0
		for i, iu := range row.IUnits {
			if iu.Rank != i+1 {
				t.Errorf("row %s IUnit %d has Rank %d", row.Value, i, iu.Rank)
			}
			if iu.PivotValue != row.Value {
				t.Errorf("IUnit pivot value %q in row %q", iu.PivotValue, row.Value)
			}
			if iu.Size != len(iu.Rows) || iu.Size == 0 {
				t.Errorf("IUnit size %d != %d rows", iu.Size, len(iu.Rows))
			}
			if len(iu.Labels) != len(view.CompareAttrs) {
				t.Errorf("IUnit has %d labels for %d Compare Attributes", len(iu.Labels), len(view.CompareAttrs))
			}
			for _, l := range iu.Labels {
				if len(l.Groups) == 0 {
					t.Errorf("empty label for %s in row %s", l.Attr, row.Value)
				}
			}
			for _, r := range iu.Rows {
				if seen[r] {
					t.Errorf("row id %d appears in two IUnits of %s", r, row.Value)
				}
				seen[r] = true
			}
			total += iu.Size
		}
		if total > row.Count {
			t.Errorf("row %s IUnits cover %d > %d tuples", row.Value, total, row.Count)
		}
		// IUnits are score-ordered.
		for i := 1; i < len(row.IUnits); i++ {
			if row.IUnits[i].Score > row.IUnits[i-1].Score {
				t.Errorf("row %s IUnits not score-ordered", row.Value)
			}
		}
	}
}

func TestBuildExplicitPivotValues(t *testing.T) {
	v, rows := miniCars(t, 300, 3)
	view, _, err := Build(v, rows, Config{Pivot: "Make", PivotValues: []string{"Gamma", "Alpha"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Rows) != 2 || view.Rows[0].Value != "Gamma" || view.Rows[1].Value != "Alpha" {
		t.Errorf("explicit pivot order not honored: %v", view.PivotValues())
	}
	if _, _, err := Build(v, rows, Config{Pivot: "Make", PivotValues: []string{"Nope"}}); err == nil {
		t.Error("unknown pivot value: want error")
	}
	// Duplicates collapse.
	view, _, err = Build(v, rows, Config{Pivot: "Make", PivotValues: []string{"Alpha", "Alpha"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Rows) != 1 {
		t.Errorf("duplicate pivot values produced %d rows", len(view.Rows))
	}
}

func TestBuildExplicitCompareAttrs(t *testing.T) {
	v, rows := miniCars(t, 300, 4)
	view, _, err := Build(v, rows, Config{Pivot: "Make", CompareAttrs: []string{"Price"}, MaxCompare: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if view.CompareAttrs[0] != "Price" {
		t.Errorf("explicit Compare Attribute not first: %v", view.CompareAttrs)
	}
	if len(view.CompareAttrs) > 3 {
		t.Errorf("LIMIT COLUMNS violated: %v", view.CompareAttrs)
	}
	// Explicit list longer than MaxCompare errors.
	if _, _, err := Build(v, rows, Config{Pivot: "Make", CompareAttrs: []string{"Price", "Engine", "Model"}, MaxCompare: 2}); err == nil {
		t.Error("explicit > LIMIT COLUMNS: want error")
	}
	// Pivot as explicit Compare Attribute errors.
	if _, _, err := Build(v, rows, Config{Pivot: "Make", CompareAttrs: []string{"Make"}}); err == nil {
		t.Error("pivot as Compare Attribute: want error")
	}
	// Unknown explicit attribute errors.
	if _, _, err := Build(v, rows, Config{Pivot: "Make", CompareAttrs: []string{"Nope"}}); err == nil {
		t.Error("unknown Compare Attribute: want error")
	}
}

func TestBuildSelectsInformativeAttrs(t *testing.T) {
	view, _ := buildView(t, Config{Pivot: "Make", MaxCompare: 3, Seed: 5})
	for _, a := range view.CompareAttrs {
		if a == "Color" {
			t.Errorf("noise attribute Color selected over informative ones: %v", view.CompareAttrs)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	v, rows := miniCars(t, 50, 6)
	if _, _, err := Build(v, rows, Config{}); err == nil {
		t.Error("missing pivot: want error")
	}
	if _, _, err := Build(v, rows, Config{Pivot: "Nope"}); err == nil {
		t.Error("unknown pivot: want error")
	}
	if _, _, err := Build(v, nil, Config{Pivot: "Make"}); err == nil {
		t.Error("empty rows: want error")
	}
	if _, _, err := Build(v, dataset.RowSet{0, v.Rows()}, Config{Pivot: "Make"}); err == nil {
		t.Error("row past the view: want error")
	}
	if _, _, err := BuildBitmap(context.Background(), v, dataset.FullBitmap(v.Rows()+1), Config{Pivot: "Make"}); err == nil {
		t.Error("bitmap over another universe: want error")
	}
	if _, _, err := Build(v, rows, Config{Pivot: "Make", Preference: func(*dataview.View, *IUnit) float64 { return -1 }}); err == nil {
		t.Error("negative preference: want error")
	}
}

func TestBuildDeterministic(t *testing.T) {
	v, rows := miniCars(t, 400, 7)
	cfg := Config{Pivot: "Make", K: 3, Seed: 99}
	v1, _, err := Build(v, rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := Build(v, rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if Render(v1, nil) != Render(v2, nil) {
		t.Error("same seed produced different CAD Views")
	}
}

func TestBuildTimings(t *testing.T) {
	v, rows := miniCars(t, 400, 8)
	_, tm, err := Build(v, rows, Config{Pivot: "Make", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tm.Total() <= 0 {
		t.Errorf("timings = %+v", tm)
	}
	if tm.Total() != tm.Index+tm.CompareSelect+tm.Cluster+tm.Other {
		t.Error("Total() is not the sum of components")
	}
	// ClusterDetail is a sub-breakdown of Cluster, not a fifth stage: its
	// phases must fit inside the Cluster stage (the gap is encoding) and
	// must not inflate Total().
	d := tm.ClusterDetail
	sum := d.Seed + d.Assign + d.Update + d.Reseed
	if sum <= 0 {
		t.Errorf("cluster detail empty: %+v", d)
	}
	if sum > tm.Cluster {
		t.Errorf("cluster detail %v exceeds cluster stage %v", sum, tm.Cluster)
	}
}

func TestNumericPivot(t *testing.T) {
	// Pivoting on a numeric attribute uses its bin labels as pivot values.
	v, rows := miniCars(t, 300, 9)
	view, _, err := Build(v, rows, Config{Pivot: "Price", K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Rows) < 2 {
		t.Fatalf("numeric pivot rows = %d", len(view.Rows))
	}
	for _, a := range view.CompareAttrs {
		if a == "Price" {
			t.Error("numeric pivot leaked into Compare Attributes")
		}
	}
}

func TestIUnitSimilarityProperties(t *testing.T) {
	view, _ := buildView(t, Config{Pivot: "Make", K: 3, Seed: 10})
	var all []*IUnit
	for _, row := range view.Rows {
		all = append(all, row.IUnits...)
	}
	if len(all) < 2 {
		t.Fatal("need at least 2 IUnits")
	}
	nI := float64(len(view.CompareAttrs))
	for _, a := range all {
		s, err := IUnitSimilarity(a, a)
		if err != nil {
			t.Fatal(err)
		}
		if s < nI-1e-9 || s > nI+1e-9 {
			t.Errorf("self-similarity = %g, want |I| = %g", s, nI)
		}
		for _, b := range all {
			s1, err := IUnitSimilarity(a, b)
			if err != nil {
				t.Fatal(err)
			}
			s2, _ := IUnitSimilarity(b, a)
			if s1 != s2 {
				t.Error("similarity not symmetric")
			}
			if s1 < -1e-9 || s1 > nI+1e-9 {
				t.Errorf("similarity %g out of [0, |I|]", s1)
			}
		}
	}
	if _, err := IUnitSimilarity(nil, all[0]); err == nil {
		t.Error("nil IUnit: want error")
	}
	if _, err := IUnitSimilarity(all[0], &IUnit{}); err == nil {
		t.Error("dimension mismatch: want error")
	}
}

func TestSimilarMakesHaveSimilarIUnits(t *testing.T) {
	// Alpha and Beta are identical by construction; Gamma differs. The
	// top Alpha IUnit should highlight some Beta IUnit at the view's tau.
	view, _ := buildView(t, Config{Pivot: "Make", K: 3, Seed: 11})
	h, err := HighlightSimilar(view, "Alpha", 1, view.Tau)
	if err != nil {
		t.Fatal(err)
	}
	foundBeta := false
	for _, m := range h.Matches {
		if m.Ref.PivotValue == "Beta" {
			foundBeta = true
		}
	}
	if !foundBeta {
		t.Errorf("no Beta IUnit similar to Alpha's top IUnit at tau=%g", view.Tau)
	}
}

func TestAttributeValueDistance(t *testing.T) {
	view, _ := buildView(t, Config{Pivot: "Make", K: 3, Seed: 12})
	alpha := view.Row("Alpha").IUnits
	beta := view.Row("Beta").IUnits
	gamma := view.Row("Gamma").IUnits

	dSelf, err := AttributeValueDistance(alpha, alpha, view.Tau)
	if err != nil {
		t.Fatal(err)
	}
	if dSelf != 0 {
		t.Errorf("self distance = %g, want 0", dSelf)
	}
	dAB, err := AttributeValueDistance(alpha, beta, view.Tau)
	if err != nil {
		t.Fatal(err)
	}
	dBA, err := AttributeValueDistance(beta, alpha, view.Tau)
	if err != nil {
		t.Fatal(err)
	}
	if dAB != dBA {
		t.Errorf("distance not symmetric: %g vs %g", dAB, dBA)
	}
	dAG, err := AttributeValueDistance(alpha, gamma, view.Tau)
	if err != nil {
		t.Fatal(err)
	}
	if dAB >= dAG {
		t.Errorf("identical makes distance %g >= different makes distance %g", dAB, dAG)
	}
}

func TestHighlightSimilar(t *testing.T) {
	view, _ := buildView(t, Config{Pivot: "Make", K: 3, Seed: 13})
	h, err := HighlightSimilar(view, "Alpha", 1, view.Tau)
	if err != nil {
		t.Fatal(err)
	}
	if h.Ref.PivotValue != "Alpha" || h.Ref.Rank != 1 {
		t.Errorf("ref = %+v", h.Ref)
	}
	for i := 1; i < len(h.Matches); i++ {
		if h.Matches[i].Similarity > h.Matches[i-1].Similarity {
			t.Error("matches not sorted by similarity")
		}
	}
	for _, m := range h.Matches {
		if m.Similarity <= view.Tau {
			t.Errorf("match below threshold: %+v", m)
		}
		if m.Ref == h.Ref {
			t.Error("reference highlighted as its own match")
		}
	}
	if _, err := HighlightSimilar(view, "Nope", 1, 1); err == nil {
		t.Error("unknown pivot value: want error")
	}
	if _, err := HighlightSimilar(view, "Alpha", 99, 1); err == nil {
		t.Error("rank out of range: want error")
	}
}

func TestReorderRows(t *testing.T) {
	view, _ := buildView(t, Config{Pivot: "Make", K: 3, Seed: 14})
	re, sims, err := ReorderRows(view, "Alpha")
	if err != nil {
		t.Fatal(err)
	}
	if re.Rows[0].Value != "Alpha" {
		t.Errorf("reference row not first: %v", re.PivotValues())
	}
	if sims[0].Distance != 0 {
		t.Errorf("reference distance = %g", sims[0].Distance)
	}
	for i := 1; i < len(sims); i++ {
		if sims[i].Distance < sims[i-1].Distance {
			t.Error("rows not distance-ordered")
		}
	}
	// Beta (identical distribution) must sort before Gamma.
	pos := map[string]int{}
	for i, s := range sims {
		pos[s.PivotValue] = i
	}
	if pos["Beta"] > pos["Gamma"] {
		t.Errorf("Beta should be closer to Alpha than Gamma: %+v", sims)
	}
	// Original view is untouched.
	if view.Rows[0].Value != "Alpha" && re.Rows[0].Value == "Alpha" && len(view.Rows) != 3 {
		t.Error("original mutated")
	}
	if _, _, err := ReorderRows(view, "Nope"); err == nil {
		t.Error("unknown pivot value: want error")
	}
}

func TestRender(t *testing.T) {
	view, _ := buildView(t, Config{Pivot: "Make", K: 2, Seed: 15})
	out := Render(view, nil)
	for _, want := range []string{"Make", "Compare Attrs.", "IUnit 1", "IUnit 2", "Alpha", "Beta", "Gamma"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	h, err := HighlightSimilar(view, "Alpha", 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	marked := Render(view, h)
	if !strings.Contains(marked, "*") {
		t.Error("highlighted render has no marks")
	}
}

func TestViewAccessors(t *testing.T) {
	view, _ := buildView(t, Config{Pivot: "Make", K: 2, Seed: 16})
	if view.Row("Nope") != nil {
		t.Error("Row(Nope) should be nil")
	}
	if view.IUnit("Alpha", 0) != nil || view.IUnit("Alpha", 99) != nil || view.IUnit("Nope", 1) != nil {
		t.Error("IUnit out-of-range lookups should be nil")
	}
	iu := view.IUnit("Alpha", 1)
	if iu == nil || iu.Rank != 1 {
		t.Fatal("IUnit lookup failed")
	}
	if iu.Label("Nope").Attr != "" {
		t.Error("Label(Nope) should be zero")
	}
	lbl := iu.Labels[0]
	if lbl.String() == "" || len(lbl.Values()) == 0 {
		t.Error("label rendering empty")
	}
}

func TestPreferences(t *testing.T) {
	v, rows := miniCars(t, 400, 17)
	cheapFirst, _, err := Build(v, rows, Config{
		Pivot:      "Make",
		K:          2,
		Seed:       1,
		Preference: ByMeanAscending("Price"),
	})
	if err != nil {
		t.Fatal(err)
	}
	row := cheapFirst.Row("Alpha")
	if len(row.IUnits) >= 2 {
		m1, _ := clusterMean(v, row.IUnits[0], "Price")
		m2, _ := clusterMean(v, row.IUnits[1], "Price")
		if m1 > m2 {
			t.Errorf("ByMeanAscending put pricier cluster first: %g > %g", m1, m2)
		}
	}
	expFirst, _, err := Build(v, rows, Config{
		Pivot:      "Make",
		K:          2,
		Seed:       1,
		Preference: ByMeanDescending("Price"),
	})
	if err != nil {
		t.Fatal(err)
	}
	row = expFirst.Row("Alpha")
	if len(row.IUnits) >= 2 {
		m1, _ := clusterMean(v, row.IUnits[0], "Price")
		m2, _ := clusterMean(v, row.IUnits[1], "Price")
		if m1 < m2 {
			t.Errorf("ByMeanDescending put cheaper cluster first: %g < %g", m1, m2)
		}
	}
	// Preference over a missing attribute scores 0 everywhere but must
	// not error.
	if _, _, err := Build(v, rows, Config{Pivot: "Make", Preference: ByMeanAscending("Nope"), Seed: 1}); err != nil {
		t.Errorf("missing-attribute preference should degrade, not fail: %v", err)
	}
}

func TestParallelBuildMatchesSequential(t *testing.T) {
	v, rows := miniCars(t, 800, 20)
	cfg := Config{Pivot: "Make", K: 3, Seed: 5}
	seq, _, err := Build(v, rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = true
	par, _, err := Build(v, rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if Render(seq, nil) != Render(par, nil) {
		t.Error("parallel build differs from sequential")
	}
}

func TestAutoLBuild(t *testing.T) {
	v, rows := miniCars(t, 600, 21)
	view, _, err := Build(v, rows, Config{Pivot: "Make", K: 2, AutoL: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range view.Rows {
		if len(row.IUnits) == 0 || len(row.IUnits) > 2 {
			t.Errorf("row %s has %d IUnits under AutoL", row.Value, len(row.IUnits))
		}
	}
	// The mini dataset has two latent segments per full-line make;
	// auto-l must still surface both (the top-2 IUnits separate V4/2WD
	// from V8/4WD for Alpha).
	alpha := view.Row("Alpha")
	if len(alpha.IUnits) == 2 {
		e1 := alpha.IUnits[0].Label("Engine").Values()
		e2 := alpha.IUnits[1].Label("Engine").Values()
		if len(e1) == 1 && len(e2) == 1 && e1[0] == e2[0] {
			t.Errorf("auto-l IUnits did not separate segments: %v vs %v", e1, e2)
		}
	}
}

func TestSampledBuildMatchesShape(t *testing.T) {
	// §6.3: sampling for feature selection and clustering should
	// preserve the Compare Attribute set on well-separated data.
	v, rows := miniCars(t, 2000, 18)
	full, _, err := Build(v, rows, Config{Pivot: "Make", MaxCompare: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sampled, _, err := Build(v, rows, Config{
		Pivot:             "Make",
		MaxCompare:        3,
		Seed:              1,
		FeatureSampleSize: 300,
		ClusterSampleSize: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	fullSet := map[string]bool{}
	for _, a := range full.CompareAttrs {
		fullSet[a] = true
	}
	for _, a := range sampled.CompareAttrs {
		if !fullSet[a] {
			t.Errorf("sampled build chose %q, full build chose %v", a, full.CompareAttrs)
		}
	}
}
