// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against the library's and the decision server's public
// entry points, checks that the outputs are correct, and prints every
// metric by name and unit; the last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash _perfbench/run.sh --workload served-zipf --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json and NOTES.md for why each exists):
//
//	served-zipf  2 closed-loop sessions over loopback HTTP, Zipf(1.2) apps
//	served-cold  the same server and sessions, every replay a new random app
//	steady-mpc   in-process steady-state MPC, the 15 apps round-robin
//
// --trace 0 measures untraced and reports the end-to-end metrics.
// --trace 1 runs the same untraced phase, then a traced phase in which
// every layer boundary is wrapped from outside, and reports the
// per-layer metrics with the latency budget and its residuals.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the benchmark and prints its report. It returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", 1, "workload seed (the model seed is fixed)")
	seconds := fs.Int("seconds", 10, "nominal length of the timed phase; sets its fixed number of rounds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from an added traced phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !knownWorkload(*wl) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds >= 1 and --trace 0|1\n", workloadNames)
		return 2
	}
	res, err := benchmark(newConfig(*wl, *seed, *seconds), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	metrics := res.endToEnd
	if *trace == 1 {
		metrics = res.perLayer
	}
	printMetrics(stdout, metrics)
	line, err := json.Marshal(jsonReport{
		Correct:   res.correct,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonReport is the last line of standard output.
type jsonReport struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printMetrics writes one "name value unit" line per metric, sorted by
// name.
func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
