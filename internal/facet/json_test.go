package facet

import (
	"bytes"
	"encoding/json"
	"testing"
)

// digestRef is a digest's reference encoding: its exported fields as
// encoding/json writes them, the form the digest had before AppendJSON.
func digestRef(t *testing.T, d *Digest) []byte {
	t.Helper()
	b, err := json.Marshal(struct{ Attrs []AttrSummary }{d.Attrs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDigestAppendJSON pins AppendJSON (and MarshalJSON through it) to
// the reference bytes: session digests and panels, nil and empty slices,
// and names and values that encoding/json escapes.
func TestDigestAppendJSON(t *testing.T) {
	v, rows := testView(t)
	sess := NewSession(v, rows)
	if err := sess.Select("Make", "Ford"); err != nil {
		t.Fatal(err)
	}
	odd := []string{`<b>&"q"\`, "line\nbreak", "Citroën", "bad \xff utf-8", "sep\u2028par\u2029", ""}
	var vals []ValueCount
	for i, s := range odd {
		vals = append(vals, ValueCount{Value: s, Count: i * 1000})
	}
	for _, d := range []*Digest{
		Summarize(v, rows, false),
		sess.Digest(),
		sess.PanelDigest(),
		{},
		{Attrs: []AttrSummary{}},
		{Attrs: []AttrSummary{{Attr: odd[0]}, {Attr: odd[1], Values: []ValueCount{}}, {Attr: odd[4], Values: vals}}},
	} {
		want := digestRef(t, d)
		if got := d.AppendJSON([]byte("x")); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Errorf("AppendJSON = %s, want x%s", got, want)
		}
		if got, err := json.Marshal(d); err != nil || !bytes.Equal(got, want) {
			t.Errorf("json.Marshal = %s, %v; want %s", got, err, want)
		}
	}
	if got := (*Digest)(nil).AppendJSON(nil); string(got) != "null" {
		t.Errorf("nil digest = %s, want null", got)
	}
}
