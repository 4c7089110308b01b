package dbexplorer_test

import (
	"fmt"
	"testing"

	"dbexplorer/internal/expr"
	"dbexplorer/internal/facet"
)

// carStack is the canonical categorical filter stack of the faceted
// user study: each depth adds one more selection to the previous ones,
// narrowing the 40K table step by step.
var carStack = []struct{ attr, value string }{
	{"Transmission", "Automatic"},
	{"BodyType", "SUV"},
	{"Make", "Jeep"},
	{"Drivetrain", "4WD"},
	{"Color", "White"},
}

// stackExpr builds the depth-way conjunction of carStack predicates.
func stackExpr(depth int) expr.Expr {
	kids := make([]expr.Expr, depth)
	for i := 0; i < depth; i++ {
		kids[i] = &expr.Cmp{Attr: carStack[i].attr, Op: expr.Eq, Str: carStack[i].value}
	}
	return &expr.And{Kids: kids}
}

// BenchmarkQueryFilterStack measures WHERE-clause evaluation (compiled
// posting-bitmap algebra) on the 40K used-car table at stack depths 1-5.
func BenchmarkQueryFilterStack(b *testing.B) {
	fixtures(b)
	tbl := carView.Table()
	for depth := 1; depth <= len(carStack); depth++ {
		e := stackExpr(depth)
		b.Run(fmt.Sprintf("depth=%d/vectorized", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := expr.Select(tbl, carRows, e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDigestFilterStack measures one faceted interaction — add the
// stack's last selection, read the refreshed digest, remove it — at
// depths 1-5 on the incremental Session path (cached per-attr bitmaps
// intersected word-wise, counts via intersect-popcount per posting).
func BenchmarkDigestFilterStack(b *testing.B) {
	fixtures(b)
	for depth := 1; depth <= len(carStack); depth++ {
		b.Run(fmt.Sprintf("depth=%d/vectorized", depth), func(b *testing.B) {
			sess := facet.NewSession(carView, carRows)
			for _, sel := range carStack[:depth-1] {
				if err := sess.Select(sel.attr, sel.value); err != nil {
					b.Fatal(err)
				}
			}
			last := carStack[depth-1]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sess.Select(last.attr, last.value); err != nil {
					b.Fatal(err)
				}
				sess.Digest()
				if err := sess.Deselect(last.attr, last.value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuerySelectivity evaluates a mixed categorical + numeric
// stack (the Table 1 WHERE clause shape).
func BenchmarkQuerySelectivity(b *testing.B) {
	fixtures(b)
	tbl := carView.Table()
	e := &expr.And{Kids: []expr.Expr{
		&expr.Between{Attr: "Mileage", Lo: 10000, Hi: 30000},
		&expr.Cmp{Attr: "Transmission", Op: expr.Eq, Str: "Automatic"},
		&expr.Cmp{Attr: "BodyType", Op: expr.Eq, Str: "SUV"},
		&expr.In{Attr: "Make", Values: []string{"Jeep", "Toyota", "Honda", "Ford", "Chevrolet"}},
	}}
	b.Run("vectorized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := expr.Select(tbl, carRows, e); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPanelDigest measures the full per-attribute panel refresh
// (each attribute counted over the rows kept by every other filter) at
// stack depth 3.
func BenchmarkPanelDigest(b *testing.B) {
	fixtures(b)
	sess := facet.NewSession(carView, carRows)
	for _, sel := range carStack[:3] {
		if err := sess.Select(sel.attr, sel.value); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.PanelDigest()
	}
}
