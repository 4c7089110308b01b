package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"dbexplorer/internal/dataset"
)

func TestCADViewJSONRoundTrip(t *testing.T) {
	view, _ := buildView(t, Config{Pivot: "Make", K: 3, Seed: 40})
	data, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"pivot":"Make"`) {
		t.Errorf("json missing pivot: %s", data[:120])
	}
	var back CADView
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// Structure survives.
	if Render(&back, nil) != Render(view, nil) {
		t.Error("round trip changed the rendered view")
	}
	// Similarity operations still work on the decoded view (the
	// frequency vectors travel with it).
	h1, err := HighlightSimilar(view, "Alpha", 1, view.Tau)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HighlightSimilar(&back, "Alpha", 1, back.Tau)
	if err != nil {
		t.Fatal(err)
	}
	if len(h1.Matches) != len(h2.Matches) {
		t.Errorf("highlight differs after round trip: %d vs %d", len(h1.Matches), len(h2.Matches))
	}
	for i := range h1.Matches {
		if h1.Matches[i].Ref != h2.Matches[i].Ref {
			t.Errorf("match %d differs: %+v vs %+v", i, h1.Matches[i], h2.Matches[i])
		}
	}
	_, sims1, err := ReorderRows(view, "Gamma")
	if err != nil {
		t.Fatal(err)
	}
	_, sims2, err := ReorderRows(&back, "Gamma")
	if err != nil {
		t.Fatal(err)
	}
	for i := range sims1 {
		if sims1[i] != sims2[i] {
			t.Errorf("reorder differs after round trip: %+v vs %+v", sims1[i], sims2[i])
		}
	}
}

func TestCADViewJSONErrors(t *testing.T) {
	var v CADView
	if err := json.Unmarshal([]byte(`{"rows": 5}`), &v); err == nil {
		t.Error("malformed json: want error")
	}
	if err := json.Unmarshal([]byte(`{}`), &v); err == nil {
		t.Error("missing pivot: want error")
	}
	// Frequency vectors must align with Compare Attributes.
	bad := `{"pivot":"P","compareAttrs":["A","B"],"k":1,"tau":1,
		"rows":[{"value":"x","count":1,
		"iunits":[{"pivotValue":"x","rank":1,"size":1,"labels":[],"frequencies":[[1]]}]}]}`
	if err := json.Unmarshal([]byte(bad), &v); err == nil {
		t.Error("misaligned frequencies: want error")
	}
}

// marshalRef is the reference encoding of a view named name: the
// cadViewJSON struct tree encoded by encoding/json, the form MarshalJSON
// built before AppendJSON. AppendJSON must write these bytes exactly.
func marshalRef(v *CADView, name string) ([]byte, error) {
	out := &cadViewJSON{
		Name:         name,
		Pivot:        v.Pivot,
		CompareAttrs: v.CompareAttrs,
		K:            v.K,
		Tau:          v.Tau,
	}
	for _, row := range v.Rows {
		jr := &pivotRowJSON{Value: row.Value, Count: row.Count}
		for _, iu := range row.IUnits {
			jr.IUnits = append(jr.IUnits, &iunitJSON{
				PivotValue:  iu.PivotValue,
				Rank:        iu.Rank,
				Size:        iu.Size,
				Score:       iu.Score,
				Labels:      iu.Labels,
				Rows:        iu.Rows,
				Frequencies: iu.freq,
			})
		}
		out.Rows = append(out.Rows, jr)
	}
	return json.Marshal(out)
}

// diffAt describes where got and want first differ.
func diffAt(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("at byte %d of %d (want %d):\n got  …%s\n want …%s",
		i, len(got), len(want), got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

// checkAppendJSON fails unless AppendJSON writes the reference bytes of
// v under several names, appending to what b already holds, or fails
// exactly where the reference fails. MarshalJSON must agree too.
func checkAppendJSON(t *testing.T, v *CADView) {
	t.Helper()
	for _, name := range []string{v.Name, "", "cad-7", "<cad & \"x\">\n\u2028"} {
		want, werr := marshalRef(v, name)
		got, gerr := v.AppendJSON([]byte("prefix"), name)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("name %q: AppendJSON error %v, reference error %v", name, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("name %q: AppendJSON differs from encoding/json %s", name, diffAt(got[len("prefix"):], want))
		}
	}
	want, werr := marshalRef(v, v.Name)
	got, gerr := json.Marshal(v)
	if (werr != nil) != (gerr != nil) || werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("json.Marshal(view) = %.80s, %v; reference %.80s, %v", got, gerr, want, werr)
	}
}

func TestAppendJSONBuiltViews(t *testing.T) {
	for _, cfg := range []Config{
		{Pivot: "Make", K: 3, Seed: 40},
		{Pivot: "Make", K: 1, Seed: 1, MaxCompare: 1},
		{Pivot: "Engine", K: 4, Seed: 7},
		{Pivot: "Make", K: 2, Seed: 3, AutoL: true},
	} {
		view, _ := buildView(t, cfg)
		view.Name = "built"
		checkAppendJSON(t, view)
	}
}

// TestAppendJSONDecodedView covers frequencies that are not counts, and
// floats on each side of every formatting boundary, read back through
// UnmarshalJSON.
func TestAppendJSONDecodedView(t *testing.T) {
	in := `{"name":"decoded","pivot":"P","compareAttrs":["A","B"],"k":2,"tau":9007199254740992,
		"rows":[{"value":"x","count":3,"iunits":[
			{"pivotValue":"x","rank":1,"size":2,"score":1e20,"labels":[],"rows":[0,5],
			 "frequencies":[[0.1,0.5,1e21,1e-7,-0,0],[9007199254740991,9007199254740993,-1.5e-7,1.25]]},
			{"pivotValue":"x","rank":2,"size":1,"score":0.333,"labels":null,
			 "frequencies":[[1e-6,999999999999999900000,123456.789],[2.5e-300,-42,1e300]]}]}]}`
	var v CADView
	if err := json.Unmarshal([]byte(in), &v); err != nil {
		t.Fatal(err)
	}
	if f := v.Rows[0].IUnits[0].freq[0][4]; f != 0 || !math.Signbit(f) {
		t.Fatalf("decoded -0 as %v", f)
	}
	checkAppendJSON(t, &v)
}

// TestAppendJSONEdgeCases builds views by hand: nil and empty slices at
// every level, an IUnit without rows, a pivot row without IUnits, names
// and values that encoding/json escapes, and values with no JSON form.
func TestAppendJSONEdgeCases(t *testing.T) {
	odd := []string{`<b>&"q"\`, "line\nbreak", "Citroën", "bad \xff utf-8", "sep\u2028par\u2029", ""}
	iu := func(rows dataset.RowSet, labels []Label, freq [][]float64) *IUnit {
		return &IUnit{PivotValue: odd[0], Rank: 1, Size: len(rows), Score: 0.1, Labels: labels, Rows: rows, freq: freq}
	}
	labels := []Label{
		{Attr: odd[1], Groups: []LabelGroup{{Values: odd, Count: 3}, {Values: nil, Count: 0}, {Values: []string{}}}},
		{Attr: odd[2], Groups: nil},
		{Attr: odd[3], Groups: []LabelGroup{}},
	}
	views := []*CADView{
		{Pivot: "P"},
		{Pivot: "P", CompareAttrs: []string{}, Rows: []*PivotRow{}},
		{Name: odd[4], Pivot: odd[0], CompareAttrs: odd, K: 3, Tau: 1.5, Rows: []*PivotRow{
			{Value: odd[3], Count: 2},
			{Value: odd[5], Count: 0, IUnits: []*IUnit{}},
			{Value: odd[1], Count: 9, IUnits: []*IUnit{
				iu(nil, nil, nil),
				iu(dataset.RowSet{}, []Label{}, [][]float64{}),
				iu(dataset.RowSet{3, 1, 2}, labels, [][]float64{nil, {}, {0, 1, 0.1, math.Copysign(0, -1)}}),
			}},
		}},
	}
	for _, v := range views {
		checkAppendJSON(t, v)
	}
	// NaN and ±Inf have no JSON form: both encoders must fail.
	for _, bad := range []func(v *CADView){
		func(v *CADView) { v.Tau = math.Inf(1) },
		func(v *CADView) { v.Rows[2].IUnits[0].Score = math.NaN() },
		func(v *CADView) { v.Rows[2].IUnits[2].freq[2][1] = math.Inf(-1) },
	} {
		v := *views[2]
		v.Rows = []*PivotRow{views[2].Rows[0], views[2].Rows[1], {Value: "x", IUnits: []*IUnit{
			iu(nil, nil, nil), iu(nil, nil, nil), iu(dataset.RowSet{1}, nil, [][]float64{{1}, {1}, {1, 2}}),
		}}}
		bad(&v)
		if _, err := v.AppendJSON(nil, "x"); err == nil {
			t.Error("AppendJSON of a NaN or infinite value: want error")
		}
		checkAppendJSON(t, &v)
	}
}
