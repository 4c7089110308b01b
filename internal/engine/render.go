package engine

import (
	"fmt"
	"strings"

	"dbexplorer/internal/core"
)

// RenderResult formats a statement result for terminal display. Row
// results are capped at maxRows (0 = 20).
func RenderResult(r *Result, maxRows int) string {
	if maxRows <= 0 {
		maxRows = 20
	}
	switch r.Kind {
	case KindRows:
		return renderSelect(r, maxRows)
	case KindView:
		return core.Render(r.View, nil)
	case KindHighlight:
		return renderHighlight(r)
	case KindReorder:
		return renderReorder(r)
	case KindMessage:
		return r.Message + "\n"
	default:
		return fmt.Sprintf("(unknown result kind %d)", int(r.Kind))
	}
}

func renderSelect(r *Result, maxRows int) string {
	cols := r.Columns
	if len(cols) == 0 {
		cols = r.Table.Schema().Names()
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = r.Table.ColIndex(c)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", strings.Join(cols, " | "))
	shown := 0
	for _, row := range r.Rows {
		if shown == maxRows {
			break
		}
		cells := make([]string, len(idx))
		for i, c := range idx {
			cells[i] = r.Table.CellString(row, c)
		}
		fmt.Fprintf(&b, "%s\n", strings.Join(cells, " | "))
		shown++
	}
	if len(r.Rows) > shown {
		fmt.Fprintf(&b, "... (%d more rows)\n", len(r.Rows)-shown)
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(r.Rows))
	return b.String()
}

func renderHighlight(r *Result) string {
	var b strings.Builder
	h := r.Highlight
	fmt.Fprintf(&b, "IUnits similar to (%s, IUnit %d) above %.2f:\n", h.Ref.PivotValue, h.Ref.Rank, h.Tau)
	if len(h.Matches) == 0 {
		b.WriteString("  (none)\n")
	}
	for _, m := range h.Matches {
		fmt.Fprintf(&b, "  (%s, IUnit %d) similarity %.2f\n", m.Ref.PivotValue, m.Ref.Rank, m.Similarity)
	}
	b.WriteString(core.Render(r.View, h))
	return b.String()
}

func renderReorder(r *Result) string {
	var b strings.Builder
	b.WriteString("Rows reordered by similarity:\n")
	for _, s := range r.Similarities {
		fmt.Fprintf(&b, "  %s (distance %.0f)\n", s.PivotValue, s.Distance)
	}
	b.WriteString(core.Render(r.View, nil))
	return b.String()
}
