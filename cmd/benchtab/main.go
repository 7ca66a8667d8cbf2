// Command benchtab regenerates the paper's evaluation artifacts: Tables 1-3
// and Figures 11-14. Performance of the system itself is measured by the
// repository benchmark, bash sxbench/run.sh.
//
// Usage:
//
//	benchtab -all                        # everything, to stdout
//	benchtab -all -o results.txt         # everything, to a file
//	benchtab -table 1                    # jBYTEmark dynamic counts
//	benchtab -table 2                    # SPECjvm98 dynamic counts
//	benchtab -table 3                    # compilation time breakdown
//	benchtab -figure 13                  # jBYTEmark performance improvement
//	benchtab -machine ppc64              # switch the machine model
//	benchtab -noprofile                  # static frequency estimates only
//	benchtab -parallel 8                 # compile-driver worker count
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"signext/internal/bench"
	"signext/internal/ir"
	"signext/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	flag := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	flag.SetOutput(stderr)
	table := flag.Int("table", 0, "regenerate table 1, 2 or 3")
	figure := flag.Int("figure", 0, "regenerate figure 11, 12, 13 or 14")
	all := flag.Bool("all", false, "regenerate every table and figure")
	machine := flag.String("machine", "ia64", "machine model: ia64 or ppc64")
	noprofile := flag.Bool("noprofile", false, "disable interpreter branch profiles")
	out := flag.String("o", "", "write output to this file instead of stdout")
	parallel := flag.Int("parallel", 0, "compile-driver worker count (0 = all CPUs, 1 = sequential)")
	if err := flag.Parse(args); err != nil {
		return 2
	}
	if flag.NArg() > 0 {
		fmt.Fprintln(stderr, "benchtab: unexpected arguments:", flag.Args())
		return 2
	}

	mach, err := ir.ParseMachine(*machine)
	if err != nil {
		fmt.Fprintln(stderr, "benchtab:", err)
		return 2
	}

	// Output sink: stdout by default, -o path otherwise.
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "benchtab:", err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "benchtab:", err)
			}
		}()
		w = f
	}

	if !*all && *table == 0 && *figure == 0 {
		flag.Usage()
		return 2
	}

	opts := bench.Options{Machine: mach, UseProfile: !*noprofile, Parallelism: *parallel}
	var jb, spec *bench.SuiteResult
	needJB := *all || *table == 1 || *table == 3 || *figure == 11 || *figure == 13
	needSpec := *all || *table == 2 || *table == 3 || *figure == 12 || *figure == 14

	suite := func(ws []workloads.Workload, label string) (*bench.SuiteResult, error) {
		fmt.Fprintf(stderr, "benchtab: running %s (%d workloads x %d variants)...\n",
			label, len(ws), 12)
		r, err := bench.RunSuite(ws, opts)
		if err != nil {
			return nil, err
		}
		if len(r.Mismatch) > 0 {
			return nil, fmt.Errorf("OUTPUT MISMATCH (miscompile): %v", r.Mismatch)
		}
		return r, nil
	}
	if needJB {
		if jb, err = suite(workloads.JBYTEmark(), "jBYTEmark"); err != nil {
			fmt.Fprintln(stderr, "benchtab:", err)
			return 1
		}
	}
	if needSpec {
		if spec, err = suite(workloads.SPECjvm98(), "SPECjvm98"); err != nil {
			fmt.Fprintln(stderr, "benchtab:", err)
			return 1
		}
	}

	show := func(cond bool, s string) {
		if cond {
			fmt.Fprintln(w, s)
		}
	}
	show(*all || *table == 1,
		jbOr(jb, func(r *bench.SuiteResult) string {
			return r.FormatCountTable("Table 1. Dynamic counts of remaining 32-bit sign extensions for jBYTEmark")
		}))
	show(*all || *table == 2,
		jbOr(spec, func(r *bench.SuiteResult) string {
			return r.FormatCountTable("Table 2. Dynamic counts of remaining 32-bit sign extensions for SPECjvm98")
		}))
	show(*all || *figure == 11,
		jbOr(jb, func(r *bench.SuiteResult) string { return r.FormatPctFigure("Figure 11 (jBYTEmark)") }))
	show(*all || *figure == 12,
		jbOr(spec, func(r *bench.SuiteResult) string { return r.FormatPctFigure("Figure 12 (SPECjvm98)") }))
	show(*all || *figure == 13,
		jbOr(jb, func(r *bench.SuiteResult) string { return r.FormatPerfFigure("Figure 13 (jBYTEmark)") }))
	show(*all || *figure == 14,
		jbOr(spec, func(r *bench.SuiteResult) string { return r.FormatPerfFigure("Figure 14 (SPECjvm98)") }))
	if *all || *table == 3 {
		var rs []*bench.SuiteResult
		if spec != nil {
			rs = append(rs, spec)
		}
		if jb != nil {
			rs = append(rs, jb)
		}
		fmt.Fprintln(w, bench.FormatTimingTable(rs))
	}
	return 0
}

func jbOr(r *bench.SuiteResult, f func(*bench.SuiteResult) string) string {
	if r == nil {
		return ""
	}
	return f(r)
}
