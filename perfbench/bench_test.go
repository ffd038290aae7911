package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"github.com/memlp/memlp"
)

// The benchmark's self-test: each workload runs briefly, twice, with one
// seed, and the deterministic columns must repeat exactly. Run from this
// directory with `go test .` (about a minute on two cores).

const testSeed = 7

// brief is a run length short enough that the loops stop at their minimum
// op counts.
var brief = config{seed: testSeed, seconds: time.Millisecond}

// shortPool is the first few problems of a workload's pool: makePool draws
// problem seeds in order, so they equal the full pool's first problems.
func shortPool(t *testing.T, m, n int) []poolProblem {
	t.Helper()
	pool, err := makePool(testSeed, 8, m, n)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func twice(t *testing.T, run func() (*result, error)) (a, b *result) {
	t.Helper()
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err = run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*result{a, b} {
		if !r.Correct || r.Failed != 0 {
			t.Fatalf("run not clean: correct=%v failed=%d of %d", r.Correct, r.Failed, r.Attempted)
		}
	}
	return a, b
}

func sameMetrics(t *testing.T, a, b *result, names ...string) {
	t.Helper()
	for _, name := range names {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s differs between runs: %v vs %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}

var modeledColumns = []string{"iters_per_op", "hw_us_per_op", "hw_uj_per_op", "obj_rel_err_mean"}

func TestIPMAnalogRepeats(t *testing.T) {
	pool := shortPool(t, ipmM, 0)
	a, b := twice(t, func() (*result, error) {
		return runPool(brief, pool, func() (*memlp.Solver, error) { return memlp.NewSolver(memlp.EngineCrossbar) })
	})
	sameMetrics(t, a, b, modeledColumns...)
}

func TestPDHGTiledRepeats(t *testing.T) {
	pool := shortPool(t, pdhgM, pdhgN)
	a, b := twice(t, func() (*result, error) {
		return runPool(brief, pool, func() (*memlp.Solver, error) {
			return memlp.NewSolver(memlp.EnginePDHG, pdhgOptions(pdhgGrid)...)
		})
	})
	sameMetrics(t, a, b, modeledColumns...)
}

func TestServeCoalesceVerifies(t *testing.T) {
	a, _ := twice(t, func() (*result, error) { return runServe(brief) })
	if err := checkCatalogue(withRSS(a.Metrics), false); err != nil {
		t.Fatal(err)
	}
}

// TestTracedPassesRepeat runs the traced ipm-analog and pdhg-tiled passes,
// whose self-checks compare every op against the untraced public path (and,
// for PDHG, grid 1 against grid 2). The crossbar counters must repeat.
func TestTracedPassesRepeat(t *testing.T) {
	a, b := twice(t, func() (*result, error) { return traceIPM(brief) })
	sameMetrics(t, a, b, "crossbar.cells_written_per_op", "crossbar.cells_skipped_per_op",
		"crossbar.conversions_per_op", "crossbar.analog_ops_per_op", "core.iters_per_op")
	a, b = twice(t, func() (*result, error) { return tracePDHG(brief) })
	sameMetrics(t, a, b, "pdhg.iters_per_op", "pdhg.restarts_per_op", "noc.hops_per_op", "noc.hw_us_per_op")
}

// TestTallyCountsInputs pins how attempted and failed are counted: per
// distinct input, so a failing input cycled many times counts once, and an
// input counts as failed if any of its ops failed.
func TestTallyCountsInputs(t *testing.T) {
	var tl tally
	for pass := 0; pass < 3; pass++ {
		tl.add(0, true, false)
		tl.add(1, false, false)
		tl.add(2, pass != 1, false)
	}
	r := tl.result(nil)
	if r.Attempted != 3 || r.Failed != 2 || !r.Correct {
		t.Fatalf("attempted=%d failed=%d correct=%v, want 3, 2, true", r.Attempted, r.Failed, r.Correct)
	}
	tl.add(3, false, true)
	if r := tl.result(nil); r.Attempted != 4 || r.Failed != 3 || r.Correct {
		t.Fatalf("after a wrong output: attempted=%d failed=%d correct=%v, want 4, 3, false", r.Attempted, r.Failed, r.Correct)
	}
}

func withRSS(ms map[string]metric) map[string]metric {
	ms["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	return ms
}

// TestBenchmarkJSONMatchesCatalogue pins BENCHMARK.json to the metrics the
// program prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not runnable", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	setupBound := 0.0
	for _, d := range spec.EndToEnd {
		if d.Name == "setup_s" {
			setupBound = *d.Bound
		}
	}
	for _, c := range []struct {
		defs    []def
		catalog map[string]string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.defs) != len(c.catalog) {
			t.Errorf("BENCHMARK.json declares %d metrics, the catalogue %d", len(c.defs), len(c.catalog))
		}
		for _, d := range c.defs {
			if unit, ok := c.catalog[d.Name]; !ok || unit != d.Unit {
				t.Errorf("metric %s (%s) does not match the catalogue (%q)", d.Name, d.Unit, unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better %q", d.Name, d.Better)
			}
			if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25 || *d.Bound > setupBound) {
				t.Errorf("metric %s: bound %v outside (0, setup_s bound %v]", d.Name, *d.Bound, setupBound)
			}
		}
	}
}
