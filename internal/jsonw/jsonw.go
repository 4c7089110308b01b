// Package jsonw appends JSON scalars to a byte slice without reflection,
// byte for byte as encoding/json writes them with HTML escaping on (the
// default of json.Marshal and json.Encoder). The hot HTTP response
// bodies are appended with it. Only the common cases have fast paths;
// every other value is written by encoding/json's own rules, so the
// output equals json.Marshal's by construction.
package jsonw

import (
	"encoding/json"
	"math"
	"strconv"
)

// String appends s as a JSON string. Printable ASCII other than the
// bytes encoding/json escapes (", \, <, > and &) is copied as is; a
// string holding any other byte is encoded by json.Marshal.
func String(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// maxExact is 2^53. Every integer of smaller magnitude is a float64 whose
// shortest decimal form is its integer digits.
const maxExact = 1 << 53

// Float appends f as encoding/json writes a float64. An integral value of
// magnitude below 2^53 other than −0 is written as an integer; any other
// value in ES6 number form: 'f' format, or 'e' below 1e-6 and from 1e21
// up, with a one-digit negative exponent written unpadded (1e-7, not
// 1e-07). NaN and ±Inf have no JSON form: they return the error
// json.Marshal returns, and b unchanged.
func Float(b []byte, f float64) ([]byte, error) {
	if math.Abs(f) < maxExact {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(b, i, 10), nil
		}
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
