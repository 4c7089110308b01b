// Skewed value distributions for benchmark tables. Real exploratory
// datasets are not uniform: a used-car corpus has a handful of dominant
// makes and a long tail of rare ones, and it is exactly that skew that
// decides whether hybrid posting containers (dense bitmap for the head
// codes, sorted arrays for the tail) and cost-ordered predicate plans
// pay off. The generators here are seeded and deterministic like the
// rest of the package.
package datagen

import (
	"fmt"
	"math/rand"

	"dbexplorer/internal/dataset"
)

// Zipf samples dictionary codes 0..card-1 with frequency proportional to
// 1/(code+1)^s — code 0 is the head value, high codes the sparse tail.
// s must be > 1 (the stdlib sampler's domain); larger s means heavier
// skew.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf returns a seeded Zipf sampler over card distinct codes with
// exponent s.
func NewZipf(rng *rand.Rand, s float64, card int) *Zipf {
	if card < 1 {
		panic("datagen: Zipf needs at least one value")
	}
	return &Zipf{z: rand.NewZipf(rng, s, 1, uint64(card-1))}
}

// Next draws one code.
func (z *Zipf) Next() int { return int(z.z.Uint64()) }

// ZipfColumn describes one skewed categorical column of a ZipfTable.
type ZipfColumn struct {
	Name string
	Card int     // distinct values v0000..v{Card-1}
	S    float64 // Zipf exponent, > 1
}

// ZipfTable builds an n-row table whose categorical columns follow
// independent Zipf distributions — the realistic skewed-dictionary shape
// where a few head codes own most rows and most codes are sparse. One
// numeric column "score" (uniform in [0, 1000)) rides along so numeric
// range predicates can be benchmarked against the same table. Values are
// labeled "v%04d" in code order, so value "v0000" of a column is always
// its most frequent.
func ZipfTable(name string, n int, cols []ZipfColumn, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	schema := make(dataset.Schema, 0, len(cols)+1)
	for _, c := range cols {
		schema = append(schema, dataset.Attribute{Name: c.Name, Kind: dataset.Categorical, Queriable: true})
	}
	schema = append(schema, dataset.Attribute{Name: "score", Kind: dataset.Numeric, Queriable: true})
	t := dataset.NewTable(name, schema)

	samplers := make([]*Zipf, len(cols))
	for i, c := range cols {
		samplers[i] = NewZipf(rng, c.S, c.Card)
	}
	row := make([]any, len(cols)+1)
	for r := 0; r < n; r++ {
		for i := range cols {
			row[i] = fmt.Sprintf("v%04d", samplers[i].Next())
		}
		row[len(cols)] = rng.Float64() * 1000
		t.MustAppendRow(row...)
	}
	return t
}
