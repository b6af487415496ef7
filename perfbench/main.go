// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the GRAPE engine, checks every answer against the
// sequential oracle (internal/seq), and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with the
// engine driven only through the public grape facade. With --trace 1 the
// run measures the same operations twice — once through the facade, once
// through a session assembled from the same internal constructors with
// span-recording wrappers around every layer boundary — checks that both
// produced identical answers and counts, and prints per-layer metrics.
//
// Run it through perfbench/run.sh, which builds the binary from source:
//
//	bash perfbench/run.sh --workload kb-sssp --seed 1 --seconds 30 --trace 0
//
// Workloads, metrics and the per-layer → end-to-end mapping are documented
// in perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated queries and update batches")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measurement budget of one run, in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	cfg.traceDir = filepath.Join(".bench_build", "trace")
	cfg.traced = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed the oracle or errored\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// scale overrides the workload's dataset scale; tests run at "tiny".
	scale string
	// traceDir is where a traced run writes its spans.
	traceDir string
	// queries and batches, when queries is positive, override the
	// workload's schedule size; tests shrink it.
	queries, batches int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// writeResult prints every metric as a human-readable line, then the result
// as the single JSON object that ends the output.
func writeResult(w io.Writer, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  %-36s %14d of %d attempted\n", "failed", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
