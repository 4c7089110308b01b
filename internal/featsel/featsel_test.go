package featsel

import (
	"context"
	"math/rand"
	"testing"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
)

// syntheticView builds a table where:
//   - Strong is (nearly) determined by Class,
//   - Weak is loosely associated with Class,
//   - Noise is independent of Class,
//   - Num is numeric and class-shifted (so binning must expose it).
func syntheticView(t *testing.T, n int, seed int64) (*dataview.View, dataset.RowSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := dataset.NewTable("synth", dataset.Schema{
		{Name: "Class", Kind: dataset.Categorical, Queriable: true},
		{Name: "Strong", Kind: dataset.Categorical, Queriable: true},
		{Name: "Weak", Kind: dataset.Categorical, Queriable: true},
		{Name: "Noise", Kind: dataset.Categorical, Queriable: true},
		{Name: "Num", Kind: dataset.Numeric, Queriable: true},
	})
	classes := []string{"A", "B", "C"}
	for i := 0; i < n; i++ {
		cls := classes[rng.Intn(3)]
		strong := "s-" + cls
		if rng.Float64() < 0.05 {
			strong = "s-" + classes[rng.Intn(3)]
		}
		weak := "w0"
		if cls == "A" && rng.Float64() < 0.6 {
			weak = "w1"
		} else if rng.Float64() < 0.3 {
			weak = "w1"
		}
		noise := []string{"n0", "n1", "n2"}[rng.Intn(3)]
		// Class-shifted but overlapping: informative, yet clearly weaker
		// than the near-deterministic Strong attribute.
		num := rng.NormFloat64() * 10
		switch cls {
		case "B":
			num += 8
		case "C":
			num += 16
		}
		tbl.MustAppendRow(cls, strong, weak, noise, num)
	}
	v, err := dataview.New(tbl, dataview.Options{Bins: 5})
	if err != nil {
		t.Fatal(err)
	}
	return v, dataset.AllRows(tbl.NumRows())
}

var allCandidates = []string{"Strong", "Weak", "Noise", "Num"}

func TestChiSquareRanking(t *testing.T) {
	v, rows := syntheticView(t, 600, 1)
	scores, err := ChiSquare(v, rows, "Class", allCandidates)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 4 {
		t.Fatalf("got %d scores", len(scores))
	}
	if scores[0].Attr != "Strong" {
		t.Errorf("top attribute = %q, want Strong (scores %+v)", scores[0].Attr, scores)
	}
	if scores[len(scores)-1].Attr != "Noise" {
		t.Errorf("bottom attribute = %q, want Noise", scores[len(scores)-1].Attr)
	}
	for _, s := range scores {
		if s.Attr == "Strong" && s.PValue > 1e-6 {
			t.Errorf("Strong p-value = %g, want tiny", s.PValue)
		}
		if s.Attr == "Noise" && s.PValue < 0.001 {
			t.Errorf("Noise p-value = %g, want large", s.PValue)
		}
	}
}

func TestChiSquareNumericAttributeDetected(t *testing.T) {
	v, rows := syntheticView(t, 600, 2)
	scores, err := ChiSquare(v, rows, "Class", allCandidates)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, s := range scores {
		pos[s.Attr] = i
	}
	if pos["Num"] > pos["Noise"] {
		t.Errorf("numeric class-shifted attribute ranked below noise: %+v", scores)
	}
}

func TestMutualInformationRanking(t *testing.T) {
	v, rows := syntheticView(t, 600, 3)
	scores, err := MutualInformation(v, rows, "Class", allCandidates)
	if err != nil {
		t.Fatal(err)
	}
	if scores[0].Attr != "Strong" {
		t.Errorf("MI top attribute = %q (scores %+v)", scores[0].Attr, scores)
	}
	for _, s := range scores {
		if s.Stat < -1e-9 {
			t.Errorf("MI of %q = %g, want >= 0", s.Attr, s.Stat)
		}
		if s.Attr == "Noise" && s.Stat > 0.05 {
			t.Errorf("MI of Noise = %g, want near 0", s.Stat)
		}
	}
}

func TestReliefFRanking(t *testing.T) {
	v, rows := syntheticView(t, 300, 4)
	scores, err := ReliefF(v, rows, "Class", allCandidates, ReliefFOptions{Samples: 150, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	var strongW, noiseW float64
	for i, s := range scores {
		pos[s.Attr] = i
		switch s.Attr {
		case "Strong":
			strongW = s.Stat
		case "Noise":
			noiseW = s.Stat
		}
	}
	if pos["Strong"] != 0 {
		t.Errorf("ReliefF top attribute should be Strong: %+v", scores)
	}
	if strongW <= noiseW {
		t.Errorf("ReliefF weights: Strong %g <= Noise %g", strongW, noiseW)
	}
}

func TestRankerErrors(t *testing.T) {
	v, rows := syntheticView(t, 50, 5)
	ctx := context.Background()
	type ranker func(context.Context, *dataview.View, dataset.RowSet, string, []string) ([]Score, error)
	for name, r := range map[string]ranker{
		"ChiSquare":         ChiSquareContext,
		"MutualInformation": MutualInformationContext,
	} {
		if _, err := r(ctx, v, rows, "Class", []string{"Nope"}); err == nil {
			t.Errorf("%s: unknown candidate, want error", name)
		}
		if _, err := r(ctx, v, rows, "Nope", []string{"Strong"}); err == nil {
			t.Errorf("%s: unknown class, want error", name)
		}
		if _, err := r(ctx, v, rows, "Class", []string{"Class"}); err == nil {
			t.Errorf("%s: class as candidate, want error", name)
		}
		if _, err := r(ctx, v, nil, "Class", []string{"Strong"}); err == nil {
			t.Errorf("%s: empty rows, want error", name)
		}
	}
	if _, err := ReliefF(v, dataset.RowSet{0}, "Class", []string{"Strong"}, ReliefFOptions{}); err == nil {
		t.Error("ReliefF with 1 row: want error")
	}
	if _, err := ReliefF(v, rows, "Class", []string{"Class"}, ReliefFOptions{}); err == nil {
		t.Error("ReliefF class as candidate: want error")
	}
}

func TestChiSquareDeterministic(t *testing.T) {
	v, rows := syntheticView(t, 200, 6)
	s1, err := ChiSquare(v, rows, "Class", allCandidates)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ChiSquare(v, rows, "Class", allCandidates)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Errorf("rank %d differs between runs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

func TestSamplingStability(t *testing.T) {
	// §6.3 Optimization 1: the chi-square ranking computed on a modest
	// sample should match the full-data ranking for clearly separated
	// attributes.
	v, rows := syntheticView(t, 2000, 7)
	full, err := ChiSquare(v, rows, "Class", allCandidates)
	if err != nil {
		t.Fatal(err)
	}
	sample := rows[:400]
	sampled, err := ChiSquare(v, sample, "Class", allCandidates)
	if err != nil {
		t.Fatal(err)
	}
	if full[0].Attr != sampled[0].Attr {
		t.Errorf("sampled top attribute %q != full %q", sampled[0].Attr, full[0].Attr)
	}
}
