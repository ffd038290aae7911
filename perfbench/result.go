package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer are the metric catalogue: every name a run prints,
// with its unit. BENCHMARK.json declares the same set (pinned by the
// self-test), and checkCatalogue refuses to print anything else.
var endToEnd = map[string]string{
	"setup_s":          "s",
	"ops_per_s":        "1/s",
	"latency_ms_p50":   "ms",
	"latency_ms_p90":   "ms",
	"iters_per_op":     "count",
	"hw_us_per_op":     "us",
	"hw_uj_per_op":     "uJ",
	"obj_rel_err_mean": "ratio",
	"alloc_kb_per_op":  "KB",
	"max_rss_mb":       "MB",
}

var perLayer = map[string]string{
	"crossbar.settle_us":             "us",
	"crossbar.settle_share":          "ratio",
	"crossbar.settles_per_op":        "count",
	"crossbar.matvec_us":             "us",
	"crossbar.matvecs_per_op":        "count",
	"crossbar.update_us":             "us",
	"crossbar.updates_per_op":        "count",
	"crossbar.program_us":            "us",
	"crossbar.programs_per_op":       "count",
	"crossbar.cells_written_per_op":  "count",
	"crossbar.cells_skipped_per_op":  "count",
	"crossbar.skip_ratio":            "ratio",
	"crossbar.conversions_per_op":    "count",
	"crossbar.analog_ops_per_op":     "count",
	"core.iters_per_op":              "count",
	"core.self_us_per_iter":          "us",
	"core.attempts_per_op":           "count",
	"core.shard_busy_share":          "ratio",
	"pdhg.iters_per_op":              "count",
	"pdhg.restarts_per_op":           "count",
	"pdhg.tiles_refreshed_per_op":    "count",
	"pdhg.us_per_iter":               "us",
	"pdhg.tile_new_us":               "us",
	"pdhg.tile_program_us":           "us",
	"pdhg.tile_matvec_us":            "us",
	"pdhg.grid_overhead_us_per_iter": "us",
	"noc.hops_per_op":                "count",
	"noc.hw_us_per_op":               "us",
	"serve.overhead_ms_p50":          "ms",
	"serve.solve_ms_p50":             "ms",
	"serve.coalesce_rate":            "ratio",
	"serve.mean_batch":               "count",
	"serve.warm_hit_rate":            "ratio",
	"serve.rejected_frac":            "ratio",
	"runtime.gc_per_op":              "count",
	"runtime.gc_pause_ms":            "ms",
}

// checkCatalogue verifies that a run reports exactly the catalogue's
// metrics for its mode, each with its declared unit and a finite value.
func checkCatalogue(ms map[string]metric, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	for name, unit := range want {
		m, ok := ms[name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s missing", name)
		case m.Unit != unit:
			return fmt.Errorf("metric %s has unit %q, catalogue says %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	for name := range ms {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return nil
}

// objTol is the verification tolerance on the objective: the relative error
// |obj − ref| / (1 + |ref|) against the digital EnginePDIPReduced reference
// may not exceed the analog accuracy floor the repository's cross-engine
// property tests use for every analog engine.
const objTol = 0.08

func relErr(obj, ref float64) float64 { return math.Abs(obj-ref) / (1 + math.Abs(ref)) }

// percentileMS returns the nearest-rank q-quantile of the durations in
// milliseconds. It sorts d in place.
func percentileMS(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	k := int(math.Ceil(q*float64(len(d)))) - 1
	if k < 0 {
		k = 0
	}
	return ms(d[k])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianSeconds returns the median of the durations in seconds.
func medianSeconds(d []time.Duration) float64 {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2].Seconds()
	}
	return (s[n/2-1] + s[n/2]).Seconds() / 2
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuModel reads the CPU model name, or "unknown" where /proc is absent.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
