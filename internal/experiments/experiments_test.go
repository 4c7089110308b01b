package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

var quick = Config{Seed: 1, Quick: true}

func TestAllRegistry(t *testing.T) {
	exps := All()
	if len(exps) != 15 {
		t.Fatalf("experiments = %d, want 15 (table1, fig2-10, opt1, 4 extensions)", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "opt1", "ext-topk", "ext-ranker", "ext-binning", "ext-study"} {
		if !ids[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "fig8" {
		t.Errorf("got %q", e.ID)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id: want error")
	}
}

func TestTable1Quick(t *testing.T) {
	e, _ := ByID("table1")
	out, err := e.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Chevrolet", "Ford", "Jeep", "Toyota", "Honda", "IUnit 1", "Price", "HIGHLIGHT", "REORDER"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 report missing %q", want)
		}
	}
}

// TestStudyFiguresQuick runs the user-study figures in quick mode at
// seed 1 and pins their reports byte for byte to
// testdata/study_quick_seed1.txt. The simulated users read facet
// digests (facet.Summarize), so a change in how values are counted
// shows here as well as in the digest tests.
func TestStudyFiguresQuick(t *testing.T) {
	golden, err := os.ReadFile("testdata/study_quick_seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, id := range []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7"} {
		e, _ := ByID(id)
		out, err := e.Run(quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, want := range []string{"U1", "U8", "Mixed model", "χ²(1)="} {
			if !strings.Contains(out, want) {
				t.Errorf("%s report missing %q:\n%s", id, want, out)
			}
		}
		fmt.Fprintf(&got, "== %s\n%s", id, out)
	}
	if got.String() != string(golden) {
		t.Errorf("study figures differ from testdata/study_quick_seed1.txt:\n%s", got.String())
	}
}

func TestPerfFiguresQuick(t *testing.T) {
	for id, want := range map[string][]string{
		"fig8":  {"CompareAttrs", "IUnit gen", "Total"},
		"fig9":  {"l", "1K", "4K"},
		"fig10": {"|I|", "clustering time"},
		"opt1":  {"full", "Top-5"},
	} {
		e, _ := ByID(id)
		out, err := e.Run(quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("%s report missing %q:\n%s", id, w, out)
			}
		}
	}
}

func TestAblationExperimentsQuick(t *testing.T) {
	for id, want := range map[string][]string{
		"ext-topk":    {"exact score", "greedy score", "ratio"},
		"ext-ranker":  {"ChiSquare:", "MutualInfo:", "ReliefF:", "overlap"},
		"ext-binning": {"equi-depth", "equi-width", "v-optimal", "coverage"},
	} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("%s report missing %q:\n%s", id, w, out)
			}
		}
	}
	// The exact policy never loses to greedy.
	e, _ := ByID("ext-topk")
	out, err := e.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out, "\n") {
		var tau, exact, greedy, ratio float64
		if n, _ := fmt.Sscanf(line, "%f %f %f %f", &tau, &exact, &greedy, &ratio); n == 4 {
			if exact < greedy {
				t.Errorf("exact %g < greedy %g at tau %g", exact, greedy, tau)
			}
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	out, err := RunAll(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		if !strings.Contains(out, strings.ToUpper(e.ID)) {
			t.Errorf("RunAll output missing %s section", e.ID)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seed != 1 || c.Sims != 5 {
		t.Errorf("defaults = %+v", c)
	}
	q := Config{Quick: true}.withDefaults()
	if q.Sims != 2 {
		t.Errorf("quick sims = %d", q.Sims)
	}
	if len(Config{}.carSizes()) != 8 {
		t.Errorf("full sweep sizes = %v", Config{}.carSizes())
	}
}
