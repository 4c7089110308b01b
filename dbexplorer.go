// Package dbexplorer is a from-scratch Go implementation of DBExplorer
// (Singh, Cafarella, Jagadish — "DBExplorer: Exploratory Search in
// Databases", EDBT 2016): the Conditional Attribute Dependency (CAD)
// View for exploratory search over relational data, the CADQL query
// extension, and the TPFacet two-phased faceted interface, together with
// every substrate they need (columnar storage, predicate evaluation,
// histogram binning, chi-square feature selection, k-means clustering,
// diversified top-k selection) and the paper's full evaluation harness.
//
// This package is the public facade. A typical session:
//
//	cars := dbexplorer.UsedCars(40000, 1)
//	sess := dbexplorer.NewSession()
//	sess.Register(cars)
//	res, err := sess.Exec(`CREATE CADVIEW CompareMakes AS
//	    SET pivot = Make
//	    SELECT Price FROM UsedCars
//	    WHERE Mileage BETWEEN 10K AND 30K AND BodyType = SUV
//	    LIMIT COLUMNS 5 IUNITS 3`)
//	fmt.Println(dbexplorer.RenderResult(res, 0))
//
// Programmatic (no SQL) construction goes through NewView and
// BuildCADView; faceted sessions through NewFacetSession and NewTPFacet.
// The paper's experiments are regenerated by Experiments / RunExperiment
// (see also cmd/experiments and EXPERIMENTS.md).
package dbexplorer

import (
	"context"
	"io"
	"time"

	"dbexplorer/internal/bayesnet"
	"dbexplorer/internal/core"
	"dbexplorer/internal/datagen"
	"dbexplorer/internal/dataset"
	"dbexplorer/internal/dataview"
	"dbexplorer/internal/dtree"
	"dbexplorer/internal/engine"
	"dbexplorer/internal/experiments"
	"dbexplorer/internal/facet"
	"dbexplorer/internal/fd"
	"dbexplorer/internal/simuser"
)

// Storage layer types.
type (
	// Table is an in-memory columnar relation.
	Table = dataset.Table
	// Schema describes a table's attributes.
	Schema = dataset.Schema
	// Attribute is one column: name, kind, queriability.
	Attribute = dataset.Attribute
	// Kind distinguishes categorical from numeric attributes.
	Kind = dataset.Kind
	// RowSet is a selected subset of a table's rows (a result set).
	RowSet = dataset.RowSet
)

// Attribute kinds.
const (
	Categorical = dataset.Categorical
	Numeric     = dataset.Numeric
)

// CAD View types (the paper's primary contribution).
type (
	// CADView is the Conditional Attribute Dependency View.
	CADView = core.CADView
	// IUnit is one labeled interaction unit (cluster) of a CAD View.
	IUnit = core.IUnit
	// PivotRow is one pivot value's row of IUnits.
	PivotRow = core.PivotRow
	// CADConfig parameterizes CAD View construction.
	CADConfig = core.Config
	// Timings decomposes CAD View build time (Figure 8's split).
	Timings = core.Timings
	// Highlight is the result of HIGHLIGHT SIMILAR IUNITS.
	Highlight = core.Highlight
	// RowSimilarity is one row's Algorithm-2 distance after REORDER.
	RowSimilarity = core.RowSimilarity
	// View is a discretized, uniformly coded projection of a table.
	View = dataview.View
)

// Query engine types.
type (
	// Session executes CADQL statements over registered tables.
	Session = engine.Session
	// Result is one executed statement's outcome.
	Result = engine.Result
)

// Faceted navigation types (§5).
type (
	// FacetSession is the Solr-style baseline: digest plus filters.
	FacetSession = facet.Session
	// TPFacet is the two-phased faceted interface with the CAD View.
	TPFacet = facet.TPFacet
	// Digest is a faceted summary digest of a result set.
	Digest = facet.Digest
)

// SessionOption configures a Session at construction (see NewSession).
type SessionOption = engine.Option

// WithSeed sets the deterministic clustering seed for every CAD View the
// session builds.
func WithSeed(seed int64) SessionOption { return engine.WithSeed(seed) }

// WithRequestTimeout bounds every statement executed without its own
// deadline — the session-side mirror of the HTTP server's request
// timeout.
func WithRequestTimeout(d time.Duration) SessionOption { return engine.WithRequestTimeout(d) }

// NewSession returns an empty CADQL session configured by opts. Session
// exposes Exec and the context-first ExecContext; the latter aborts CAD
// View builds when its context is canceled or times out.
func NewSession(opts ...SessionOption) *Session { return engine.NewSession(opts...) }

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) *Table { return dataset.NewTable(name, schema) }

// ReadCSV loads a table from CSV with type inference.
func ReadCSV(name string, r io.Reader) (*Table, error) { return dataset.ReadCSV(name, r) }

// ReadCSVFile loads a table from a CSV file.
func ReadCSVFile(name, path string) (*Table, error) { return dataset.ReadCSVFile(name, path) }

// AllRows returns the full row set of an n-row table.
func AllRows(n int) RowSet { return dataset.AllRows(n) }

// NewView builds the discretized coded view of a table (numeric
// attributes binned, the paper's pre-processing step) with default
// settings.
func NewView(t *Table) (*View, error) {
	return dataview.New(t, dataview.Options{})
}

// BuildCADView constructs a CAD View over the given result set —
// BuildCADViewContext without cancellation.
func BuildCADView(v *View, rows RowSet, cfg CADConfig) (*CADView, Timings, error) {
	return core.Build(v, rows, cfg)
}

// BuildCADViewContext constructs a CAD View over the given result set
// under ctx: the build stops at its next checkpoint (feature-selection
// sweep, k-means iteration, top-k expansion, pivot-row boundary) and
// returns ctx's error once ctx is canceled or past its deadline.
func BuildCADViewContext(ctx context.Context, v *View, rows RowSet, cfg CADConfig) (*CADView, Timings, error) {
	return core.BuildContext(ctx, v, rows, cfg)
}

// HighlightSimilar finds IUnits similar to the referenced one — the
// HIGHLIGHT SIMILAR IUNITS operation.
func HighlightSimilar(v *CADView, pivotValue string, rank int, tau float64) (*Highlight, error) {
	return core.HighlightSimilar(v, pivotValue, rank, tau)
}

// ReorderRows reorders pivot rows by similarity to a reference value —
// the REORDER ROWS operation.
func ReorderRows(v *CADView, pivotValue string) (*CADView, []RowSimilarity, error) {
	return core.ReorderRows(v, pivotValue)
}

// RenderCADView formats a CAD View as a Table-1-style text table;
// highlight may be nil.
func RenderCADView(v *CADView, highlight *Highlight) string {
	return core.Render(v, highlight)
}

// RenderResult formats a statement result for terminal display.
func RenderResult(r *Result, maxRows int) string { return engine.RenderResult(r, maxRows) }

// NewFacetSession starts a Solr-style faceted session over a base
// result set.
func NewFacetSession(v *View, base RowSet) *FacetSession { return facet.NewSession(v, base) }

// NewTPFacet starts a TPFacet two-phased session.
func NewTPFacet(v *View, base RowSet) *TPFacet { return facet.NewTPFacet(v, base) }

// Summarize builds the faceted digest of a result set. rows are read
// as a set: order and duplicates do not change the counts.
func Summarize(v *View, rows RowSet, queriableOnly bool) *Digest {
	return facet.Summarize(v, rows, queriableOnly)
}

// DigestSimilarity compares two digests with the mean per-attribute
// cosine similarity — the user study's comparison and retrieval-error
// metric.
func DigestSimilarity(a, b *Digest) float64 { return facet.DigestSimilarity(a, b) }

// UsedCars generates the synthetic YahooUsedCar dataset (n listings,
// seeded); see DESIGN.md for the substitution rationale.
func UsedCars(n int, seed int64) *Table { return datagen.UsedCars(n, seed) }

// Mushroom generates the synthetic UCI-Mushroom-shaped dataset (8124
// rows).
func Mushroom(seed int64) *Table { return datagen.Mushroom(seed) }

// Hotels generates the introduction's hotel-booking scenario: n listings
// in one synthetic big city, with five-star hotels clustered in the
// Financial District and a location/price tradeoff.
func Hotels(n int, seed int64) *Table { return datagen.Hotels(n, seed) }

// Attribute-interaction extensions (paper §7: Bayesian networks,
// functional dependencies, decision-tree categorization as alternative
// context-dependent summaries).
type (
	// BayesNet is a learned tree-structured Bayesian network over
	// attributes.
	BayesNet = bayesnet.Network
	// BayesNetOptions configures network learning.
	BayesNetOptions = bayesnet.Options
	// Dependency is a discovered (approximate) functional dependency.
	Dependency = fd.Dependency
	// Correlation is a CORDS-style correlated attribute pair.
	Correlation = fd.Correlation
	// DecisionTree is a result-categorization tree.
	DecisionTree = dtree.Tree
	// DecisionTreeOptions bounds tree growth.
	DecisionTreeOptions = dtree.Options
)

// LearnBayesNet fits a Chow-Liu tree network over the given attributes
// of the result set — probabilistic attribute interactions (§7).
func LearnBayesNet(v *View, rows RowSet, attrs []string, opt BayesNetOptions) (*BayesNet, error) {
	return bayesnet.Learn(v, rows, attrs, opt)
}

// DiscoverFDs finds single-attribute (approximate) functional
// dependencies among the given attributes over the result set.
func DiscoverFDs(v *View, rows RowSet, attrs []string) ([]Dependency, error) {
	return fd.Discover(v, rows, attrs)
}

// DiscoverCorrelations finds chi-square-correlated attribute pairs
// (CORDS-style) over the result set with default thresholds.
func DiscoverCorrelations(v *View, rows RowSet, attrs []string) ([]Correlation, error) {
	return fd.Correlations(v, rows, attrs)
}

// BuildDecisionTree fits a categorization tree predicting classAttr —
// the related-work baseline summarizer.
func BuildDecisionTree(v *View, rows RowSet, classAttr string, candidates []string, opt DecisionTreeOptions) (*DecisionTree, error) {
	return dtree.Build(v, rows, classAttr, candidates, opt)
}

// Experiment types for regenerating the paper's evaluation.
type (
	// Experiment is one regenerable table or figure.
	Experiment = experiments.Experiment
	// ExperimentConfig scales experiment runs.
	ExperimentConfig = experiments.Config
	// StudyResult is a full simulated user study for one task.
	StudyResult = simuser.StudyResult
)

// Experiments returns every table/figure regenerator in paper order.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment runs one experiment by id ("table1", "fig2", ...,
// "opt1").
func RunExperiment(id string, cfg ExperimentConfig) (string, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return "", err
	}
	return e.Run(cfg)
}

// RunAllExperiments runs the whole battery and concatenates the reports.
func RunAllExperiments(cfg ExperimentConfig) (string, error) {
	return experiments.RunAll(cfg)
}
