package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"dbexplorer/internal/dataset"
	"dbexplorer/internal/jsonw"
)

// The paper expects "any real implementation to have a user-friendly
// interface layer on top of the query language"; these codecs give such
// a layer a wire format. The per-IUnit frequency vectors are included so
// a deserialized view still supports the similarity operations
// (HIGHLIGHT, REORDER) without access to the original table. Views are
// written by AppendJSON; the structs below are the form UnmarshalJSON
// reads, and name the keys AppendJSON writes.

type iunitJSON struct {
	PivotValue  string         `json:"pivotValue"`
	Rank        int            `json:"rank"`
	Size        int            `json:"size"`
	Score       float64        `json:"score"`
	Labels      []Label        `json:"labels"`
	Rows        dataset.RowSet `json:"rows,omitempty"`
	Frequencies [][]float64    `json:"frequencies"`
}

type pivotRowJSON struct {
	Value  string       `json:"value"`
	Count  int          `json:"count"`
	IUnits []*iunitJSON `json:"iunits"`
}

type cadViewJSON struct {
	Name         string          `json:"name,omitempty"`
	Pivot        string          `json:"pivot"`
	CompareAttrs []string        `json:"compareAttrs"`
	K            int             `json:"k"`
	Tau          float64         `json:"tau"`
	Rows         []*pivotRowJSON `json:"rows"`
}

// MarshalJSON implements json.Marshaler for CADView.
func (v *CADView) MarshalJSON() ([]byte, error) {
	return v.AppendJSON(nil, v.Name)
}

// AppendJSON appends the view's JSON encoding under the given name to b:
// the bytes json.Marshal writes for the cadViewJSON form, built without
// reflection. Rows and IUnits are written as null when a view or pivot
// row has none. A NaN or infinite tau, score or frequency has no JSON
// form and is an error, as it is for json.Marshal.
func (v *CADView) AppendJSON(b []byte, name string) ([]byte, error) {
	b = slices.Grow(b, v.jsonSizeHint())
	b = append(b, '{')
	if name != "" {
		b = append(b, `"name":`...)
		b = jsonw.String(b, name)
		b = append(b, ',')
	}
	b = append(b, `"pivot":`...)
	b = jsonw.String(b, v.Pivot)
	b = append(b, `,"compareAttrs":`...)
	b = appendStrings(b, v.CompareAttrs)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(v.K), 10)
	b = append(b, `,"tau":`...)
	b, err := jsonw.Float(b, v.Tau)
	if err != nil {
		return b, err
	}
	b = append(b, `,"rows":`...)
	if len(v.Rows) == 0 {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i, row := range v.Rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"value":`...)
		b = jsonw.String(b, row.Value)
		b = append(b, `,"count":`...)
		b = strconv.AppendInt(b, int64(row.Count), 10)
		b = append(b, `,"iunits":`...)
		if len(row.IUnits) == 0 {
			b = append(b, "null}"...)
			continue
		}
		b = append(b, '[')
		for j, iu := range row.IUnits {
			if j > 0 {
				b = append(b, ',')
			}
			if b, err = iu.appendJSON(b); err != nil {
				return b, err
			}
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}"...), nil
}

// jsonSizeHint estimates the size of the view's encoding from its member
// and frequency counts, so that AppendJSON grows its buffer about once
// instead of a few dozen times.
func (v *CADView) jsonSizeHint() int {
	n := 256
	for _, row := range v.Rows {
		for _, iu := range row.IUnits {
			n += 256 + 8*len(iu.Rows)
			for _, vec := range iu.freq {
				n += 2 * len(vec)
			}
		}
	}
	return n
}

// appendJSON appends the IUnit's iunitJSON encoding to b.
func (iu *IUnit) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"pivotValue":`...)
	b = jsonw.String(b, iu.PivotValue)
	b = append(b, `,"rank":`...)
	b = strconv.AppendInt(b, int64(iu.Rank), 10)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(iu.Size), 10)
	b = append(b, `,"score":`...)
	b, err := jsonw.Float(b, iu.Score)
	if err != nil {
		return b, err
	}
	b = append(b, `,"labels":`...)
	if iu.Labels == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, l := range iu.Labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendLabel(b, l)
		}
		b = append(b, ']')
	}
	if len(iu.Rows) > 0 {
		b = append(b, `,"rows":[`...)
		for i, r := range iu.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(r), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"frequencies":`...)
	if iu.freq == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i, vec := range iu.freq {
		if i > 0 {
			b = append(b, ',')
		}
		if vec == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for j, f := range vec {
			if j > 0 {
				b = append(b, ',')
			}
			if b, err = jsonw.Float(b, f); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, "]}"...), nil
}

// appendLabel appends l as encoding/json writes the untagged Label
// struct: Go field names as keys, nil slices as null.
func appendLabel(b []byte, l Label) []byte {
	b = append(b, `{"Attr":`...)
	b = jsonw.String(b, l.Attr)
	b = append(b, `,"Groups":`...)
	if l.Groups == nil {
		return append(b, "null}"...)
	}
	b = append(b, '[')
	for i, g := range l.Groups {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"Values":`...)
		b = appendStrings(b, g.Values)
		b = append(b, `,"Count":`...)
		b = strconv.AppendInt(b, int64(g.Count), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// appendStrings appends ss as a JSON array of strings, or null when ss
// is nil.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonw.String(b, s)
	}
	return append(b, ']')
}

// UnmarshalJSON implements json.Unmarshaler for CADView.
func (v *CADView) UnmarshalJSON(data []byte) error {
	var in cadViewJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("core: decoding CAD View: %w", err)
	}
	if in.Pivot == "" {
		return fmt.Errorf("core: CAD View JSON missing pivot")
	}
	v.Name = in.Name
	v.Pivot = in.Pivot
	v.CompareAttrs = in.CompareAttrs
	v.K = in.K
	v.Tau = in.Tau
	v.Rows = nil
	for _, jr := range in.Rows {
		row := &PivotRow{Value: jr.Value, Count: jr.Count}
		for _, ji := range jr.IUnits {
			if len(ji.Frequencies) != len(in.CompareAttrs) {
				return fmt.Errorf("core: IUnit (%s, %d) has %d frequency vectors for %d Compare Attributes",
					ji.PivotValue, ji.Rank, len(ji.Frequencies), len(in.CompareAttrs))
			}
			row.IUnits = append(row.IUnits, &IUnit{
				PivotValue: ji.PivotValue,
				Rank:       ji.Rank,
				Size:       ji.Size,
				Score:      ji.Score,
				Labels:     ji.Labels,
				Rows:       ji.Rows,
				freq:       ji.Frequencies,
			})
		}
		v.Rows = append(v.Rows, row)
	}
	return nil
}
