package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

func TestGammaPKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^{-x}.
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		got, err := GammaP(1, x)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "GammaP(1,x)", got, 1-math.Exp(-x), 1e-10)
	}
	// P(a, 0) = 0; Q(a, 0) = 1.
	p, _ := GammaP(3, 0)
	if p != 0 {
		t.Errorf("GammaP(3,0) = %g", p)
	}
	q, _ := GammaQ(3, 0)
	if q != 1 {
		t.Errorf("GammaQ(3,0) = %g", q)
	}
}

func TestGammaErrors(t *testing.T) {
	if _, err := GammaP(0, 1); err == nil {
		t.Error("a=0: want error")
	}
	if _, err := GammaP(1, -1); err == nil {
		t.Error("x<0: want error")
	}
	if _, err := GammaQ(-1, 1); err == nil {
		t.Error("GammaQ a<0: want error")
	}
}

func TestChiSquarePValueKnownQuantiles(t *testing.T) {
	// Classic critical values.
	cases := []struct {
		stat float64
		df   int
		want float64
	}{
		{3.841, 1, 0.05},
		{6.635, 1, 0.01},
		{5.991, 2, 0.05},
		{18.307, 10, 0.05},
		// Values the paper reports in §6.2.
		{5.572, 1, 0.018},
		{8.54, 1, 0.003},
		{12.04, 1, 0.0005},
		{3.28, 1, 0.07},
		{2.58, 1, 0.108},
	}
	for _, c := range cases {
		got, err := ChiSquarePValue(c.stat, c.df)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "ChiSquarePValue", got, c.want, 0.002)
	}
	if p, _ := ChiSquarePValue(0, 3); p != 1 {
		t.Errorf("p(0) = %g, want 1", p)
	}
	if _, err := ChiSquarePValue(-1, 1); err == nil {
		t.Error("negative stat: want error")
	}
	if _, err := ChiSquarePValue(1, 0); err == nil {
		t.Error("df=0: want error")
	}
}

func TestChiSquareIndependence(t *testing.T) {
	// Perfectly dependent 2x2 table.
	ct := NewContingencyTable(2, 2)
	ct.Counts[0][0] = 50
	ct.Counts[1][1] = 50
	res, err := ChiSquare(ct)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "dependent stat", res.Stat, 100, 1e-9)
	approx(t, "dependent CramerV", res.CramerV, 1, 1e-9)
	if res.PValue > 1e-10 {
		t.Errorf("dependent p = %g", res.PValue)
	}

	// Perfectly independent table.
	ct2 := NewContingencyTable(2, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			ct2.Counts[i][j] = 25
		}
	}
	res2, err := ChiSquare(ct2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "independent stat", res2.Stat, 0, 1e-9)
	approx(t, "independent p", res2.PValue, 1, 1e-9)
}

func TestChiSquareZeroMarginals(t *testing.T) {
	// A row and column of zeros must be ignored, not crash.
	ct := NewContingencyTable(3, 3)
	ct.Counts[0][0] = 30
	ct.Counts[2][2] = 30
	res, err := ChiSquare(ct)
	if err != nil {
		t.Fatal(err)
	}
	if res.DF != 1 {
		t.Errorf("df = %d, want 1 (2 live rows x 2 live cols)", res.DF)
	}
	if res.Stat <= 0 {
		t.Errorf("stat = %g", res.Stat)
	}
}

func TestChiSquareDegenerate(t *testing.T) {
	ct := NewContingencyTable(1, 3)
	ct.Counts[0][0] = 5
	ct.Counts[0][1] = 7
	res, err := ChiSquare(ct)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stat != 0 || res.PValue != 1 {
		t.Errorf("single live row should be uninformative: %+v", res)
	}
	if _, err := ChiSquare(&ContingencyTable{}); err == nil {
		t.Error("empty table: want error")
	}
	if _, err := ChiSquare(NewContingencyTable(2, 2)); err == nil {
		t.Error("all-zero table: want error")
	}
	if _, err := ChiSquare(&ContingencyTable{Counts: [][]int{{1, 2}, {3}}}); err == nil {
		t.Error("ragged table: want error")
	}
}

func TestContingencyTableAddTotal(t *testing.T) {
	ct := NewContingencyTable(2, 3)
	ct.Add(0, 1)
	ct.Add(0, 1)
	ct.Add(1, 2)
	total := 0
	for _, row := range ct.Counts {
		for _, c := range row {
			total += c
		}
	}
	if total != 3 {
		t.Errorf("Total = %d", total)
	}
	if ct.Counts[0][1] != 2 {
		t.Errorf("cell = %d", ct.Counts[0][1])
	}
}

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "Mean", Mean(xs), 5, 1e-12)
	approx(t, "Variance", Variance(xs), 32.0/7, 1e-12)
	approx(t, "StdDev", StdDev(xs), math.Sqrt(32.0/7), 1e-12)
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("empty/short slices should give 0")
	}
}

func TestCosineSimilarity(t *testing.T) {
	approx(t, "identical", CosineSimilarity([]float64{1, 2, 3}, []float64{1, 2, 3}), 1, 1e-12)
	approx(t, "orthogonal", CosineSimilarity([]float64{1, 0}, []float64{0, 1}), 0, 1e-12)
	approx(t, "scaled", CosineSimilarity([]float64{1, 1}, []float64{5, 5}), 1, 1e-12)
	approx(t, "both zero", CosineSimilarity([]float64{0, 0}, []float64{0, 0}), 1, 1e-12)
	approx(t, "one zero", CosineSimilarity([]float64{0, 0}, []float64{1, 0}), 0, 1e-12)
	// Unequal lengths: shorter is zero-padded.
	approx(t, "padded", CosineSimilarity([]float64{1}, []float64{1, 0}), 1, 1e-12)
	approx(t, "padded orthogonal", CosineSimilarity([]float64{1}, []float64{0, 1}), 0, 1e-12)
}

func TestCosineSimilarityProperty(t *testing.T) {
	f := func(rawA, rawB []uint8) bool {
		a := make([]float64, len(rawA))
		b := make([]float64, len(rawB))
		for i, v := range rawA {
			a[i] = float64(v)
		}
		for i, v := range rawB {
			b[i] = float64(v)
		}
		s1 := CosineSimilarity(a, b)
		s2 := CosineSimilarity(b, a)
		return s1 == s2 && s1 >= -1e-12 && s1 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestF1Score(t *testing.T) {
	approx(t, "perfect", F1Score(10, 0, 0), 1, 1e-12)
	approx(t, "nothing", F1Score(0, 5, 5), 0, 1e-12)
	approx(t, "half precision full recall", F1Score(10, 10, 0), 2.0/3, 1e-12)
	approx(t, "balanced", F1Score(8, 2, 2), 0.8, 1e-12)
}
