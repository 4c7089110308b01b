package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// checkString fails unless String writes s as json.Marshal does.
func checkString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := String([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Errorf("String(%q) = %s, want x%s", s, got, want)
	}
}

// checkFloat fails unless Float writes f as json.Marshal does, or both
// fail.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want, werr := json.Marshal(f)
	got, gerr := Float([]byte("x"), f)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("Float(%v): error %v, json.Marshal error %v", f, gerr, werr)
	}
	if werr != nil {
		if string(got) != "x" || gerr.Error() != werr.Error() {
			t.Errorf("Float(%v) failed with %q and buffer %q, want %q and x", f, gerr, got, werr)
		}
		return
	}
	if got[0] != 'x' || !bytes.Equal(got[1:], want) {
		t.Errorf("Float(%v) = %s, want x%s", f, got, want)
	}
}

func TestString(t *testing.T) {
	for _, s := range []string{
		"", "plain", "Chevrolet Tahoe LT", "15K-20K", "a\x7fb",
		`<script>&"quoted"\`, "line\nbreak\ttab\r\b\f", "\x00\x1f",
		"Citroën", "日本", "bad \xff utf-8", "\xc3", "sep\u2028par\u2029",
	} {
		checkString(t, s)
	}
}

func TestFloat(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 42, 0.1, -0.1, 2.5, 1.0 / 3,
		1 << 53, 1<<53 - 1, -(1<<53 - 1), -(1 << 53), 1 << 60,
		1e20, 1e21, -1e21, 1.5e21, 1e-6, 1e-7, -1e-7, 1.5e-7, 1e-10, 1e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 123456.789, 0.001,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		checkFloat(t, f)
	}
}

// FuzzAppendJSON checks both writers against encoding/json: for any
// string and any float64 bit pattern the bytes must equal json.Marshal's,
// or both must fail.
func FuzzAppendJSON(f *testing.F) {
	f.Add("plain", math.Float64bits(3))
	f.Add("<&>\n\u2028", math.Float64bits(math.Copysign(0, -1)))
	f.Add("\xff", math.Float64bits(1e-7))
	f.Add("", math.Float64bits(1e21))
	f.Add("\u00e9", math.Float64bits(math.NaN()))
	f.Fuzz(func(t *testing.T, s string, bits uint64) {
		checkString(t, s)
		checkFloat(t, math.Float64frombits(bits))
	})
}
