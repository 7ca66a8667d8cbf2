// Command sxbench is the repository benchmark. One invocation runs one
// workload for a fixed timed window, checks every output against a reference
// computed by the Mode32 tree-walker, and prints a run record followed by one
// JSON result line:
//
//	bash sxbench/run.sh --workload paper-suite --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is a
// separate run that records a span around every call into a layer's public
// entry points and prints the per-layer metrics instead. BENCHMARK.json at the
// repository root lists the workloads and metrics; metrics.go holds the same
// tables and the self-test keeps the two in step.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// params is one run's configuration.
type params struct {
	seed    int64
	seconds time.Duration // length of the timed window
	traced  bool
	setups  int    // set-up repetitions; setup_s is their median
	small   bool   // shrunken inputs for the self-test; the exact-count pins do not apply
	out     string // directory for the daemon's socket and the span log
}

type workload struct {
	name string
	run  func(p params) (*report, error)
}

var workloads = []workload{
	{"paper-suite", runPaperSuite},
	{"compile-scale", runCompileScale},
	{"daemon-mixed", runDaemonMixed},
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("sxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: sxbench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(names, "|"))
		return 2
	}
	out := os.Getenv("SXBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	p := params{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		setups:  5,
		out:     out,
	}
	rep, err := wl.run(p)
	if err != nil {
		fmt.Fprintf(stderr, "sxbench: %s: %v\n", wl.name, err)
		return 1
	}
	if p.traced {
		path := filepath.Join(p.out, "trace", fmt.Sprintf("%s-seed%d.jsonl", wl.name, p.seed))
		if err := rep.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "sxbench: %v\n", err)
			return 1
		}
		rep.note("span_log=%s", path)
	}
	if err := rep.write(stdout, wl.name, p); err != nil {
		fmt.Fprintf(stderr, "sxbench: %v\n", err)
		return 1
	}
	return 0
}
