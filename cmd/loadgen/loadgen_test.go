package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	for _, w := range b.Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", got, want)
	}
	for _, c := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		program  []spec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer()}} {
		if len(c.declared) != len(c.program) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", c.kind, len(c.declared), len(c.program))
			continue
		}
		for i, d := range c.declared {
			if p := c.program[i]; d.Name != p.name || d.Unit != p.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.kind, i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
}

// smallRun runs one workload on a 20K-row fixture for half a second,
// which is a few dozen operations per client.
func smallRun(t *testing.T, w *workload, trace bool) *result {
	t.Helper()
	cfg := config{workload: w.name, seed: 3, seconds: 0.5, trace: trace, rows: 20000}
	res, err := run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.problems)
	}
	var out bytes.Buffer
	if err := res.emit(&out, cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct   bool
		Attempted int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	specs := endToEnd
	if trace {
		specs = perLayer()
	}
	if !line.Correct || line.Attempted == 0 || len(line.Metrics) != len(specs) {
		t.Fatalf("result line %s", lines[len(lines)-1])
	}
	for _, s := range specs {
		if m, ok := line.Metrics[s.name]; !ok || m.Unit != s.unit {
			t.Errorf("metric %s (%s) missing or in another unit: %+v", s.name, s.unit, m)
		}
	}
	return res
}

func value(t *testing.T, res *result, name string) float64 {
	t.Helper()
	m, ok := res.m.get(name)
	if !ok {
		t.Fatalf("%s: no metric %s", res.w.name, name)
	}
	return m.Value
}

func TestWorkloadsSmall(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res := smallRun(t, w, false)
			switch w.name {
			case "cad-cold":
				if r := value(t, res, "viewcache.hit_rate"); r > 0.01 {
					t.Errorf("cad-cold hit rate %g, want <= 0.01", r)
				}
			case "session-mix":
				if r := value(t, res, "viewcache.hit_rate"); r < 0.8 {
					t.Errorf("session-mix hit rate %g, want >= 0.8", r)
				}
			case "ingest-mix":
				if n := value(t, res, "ingest_batches"); n < 2 {
					t.Errorf("writer appended %g batches in 0.5 s", n)
				}
			}
			if w.writer {
				return
			}
			if again := smallRun(t, w, false); again.hash != res.hash {
				t.Errorf("outputs_sha256 differs between runs of one seed: %s, %s", res.hash, again.hash)
			}
		})
	}
}

func TestTracedReplaySmall(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res := smallRun(t, w, true)
			routes := 0
			for _, m := range res.m.list {
				route, ok := strings.CutPrefix(m.Name, "httpapi.handler_ms.")
				if !ok {
					continue
				}
				routes++
				for _, name := range []string{"net.transport_ms.", "unattributed_frac."} {
					if _, ok := res.m.get(name + route); !ok {
						t.Errorf("route %s has no %s metric", route, name)
					}
				}
			}
			if routes == 0 {
				t.Error("no per-route metrics")
			}
		})
	}
}
