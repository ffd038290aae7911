// Command perfbench is the repository's benchmark harness. One invocation
// runs one workload as a closed loop for a fixed time and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics (host time measured
// on this machine beside the modeled hardware figures from
// Solution.Hardware, never mixed); with -trace 1 they are the per-layer
// metrics of a separate traced run that times calls into each layer from
// this package's own code. METRICS.md documents every metric.
//
// Usage (from the repository root, through run.sh so the build stays
// inside the checkout):
//
//	bash perfbench/run.sh --workload ipm-analog --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	// seconds is the timed phase's length; each workload also runs at
	// least one full pass over its input pool and minOps operations.
	seconds time.Duration
}

// workloads maps each workload name to its end-to-end runner; every
// workload's traced run is runTraced.
var workloads = map[string]func(cfg config) (*result, error){
	"ipm-analog":     runIPM,
	"pdhg-tiled":     runPDHG,
	"serve-coalesce": runServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: ipm-analog, pdhg-tiled or serve-coalesce")
		seed     = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 10, "timed-phase length in seconds")
		traced   = fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics of a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload {ipm-analog|pdhg-tiled|serve-coalesce}, -seconds > 0, -trace {0|1}\n")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
	}
	if *traced == 1 {
		runner = runTraced
	}
	res, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if *traced == 0 {
		res.Metrics["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	}
	if err := checkCatalogue(res.Metrics, *traced == 1); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	host, _ := json.Marshal(hostFacts()) // strings and ints always encode
	fmt.Fprintf(stdout, "host %s\n", host)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// hostFacts records the machine a run was measured on.
func hostFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}
