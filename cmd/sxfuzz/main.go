// Command sxfuzz runs coverage-seeking randomized differential testing of
// the sign-extension elimination pipeline and prints a one-line JSON
// verdict. Exit status 0 means the campaign is clean (and, in -chaos mode,
// that at least one planted miscompile was caught); 1 means failures were
// found or the chaos self-check proved the oracle blind; 2 means bad usage.
//
//	sxfuzz -seed 1 -count 2000                  # fixed-size campaign
//	sxfuzz -seed 7 -duration 60s -minimize      # timed, write reproducers
//	sxfuzz -seed 1 -count 200 -chaos            # fault-injection self-check
//	sxfuzz -list                                # print the opt-in property names
//	sxfuzz -seed 1 -count 500 -props NAME,...   # add opt-in properties named by -list
//	sxfuzz -seed 1 -count 100 -corpus internal/difftest/testdata/peep  # seed with the directed rule corpus
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"signext/internal/difftest"
	"signext/internal/progen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sxfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "base seed; program i uses seed+i")
		count    = fs.Int("count", 0, "program budget (0 = until -duration)")
		duration = fs.Duration("duration", 0, "wall budget (0 = until -count)")
		workers  = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		kind     = fs.String("kind", "", "restrict generator kind: mj or ir (default both)")
		stmts    = fs.Int("stmts", 0, "statements per generated program (0 = default)")
		heavy    = fs.Int("heavy", 0, "run full metamorphic set every Nth program (0 = default 5, 1 = always)")
		minimize = fs.Bool("minimize", false, "shrink failures into reproducer files")
		repros   = fs.Int("repros", 0, "max reproducers to write (0 = default 3)")
		out      = fs.String("out", "", "reproducer output directory (default internal/difftest/testdata)")
		chaos    = fs.Bool("chaos", false, "fault-injection self-check: plant DropExt miscompiles, require the oracle to catch them")
		props    = fs.String("props", "", "comma-separated opt-in properties to add (see -list)")
		list     = fs.Bool("list", false, "print the opt-in property names, one a line, and exit")
		corpus   = fs.String("corpus", "", "replay every .ir entry in this directory (directed corpus) before the generated programs")
		verbose  = fs.Bool("v", false, "log campaign progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "sxfuzz: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	cfg := difftest.CampaignConfig{
		Seed:        *seed,
		Count:       *count,
		Duration:    *duration,
		Workers:     *workers,
		Gen:         progen.Config{Stmts: *stmts},
		HeavySample: *heavy,
		Chaos:       *chaos,
		Minimize:    *minimize,
		MaxRepros:   *repros,
		OutDir:      *out,
		Corpus:      *corpus,
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(difftest.OptIns(), "\n"))
		return 0
	}
	if *props != "" {
		cfg.Check.Props = strings.Split(*props, ",")
	}
	for _, name := range cfg.Check.Props {
		if !slices.Contains(difftest.OptIns(), name) {
			fmt.Fprintf(stderr, "sxfuzz: -props: %q is not an opt-in property (see -list)\n", name)
			return 2
		}
	}
	switch *kind {
	case "":
	case "mj", "ir":
		cfg.Kinds = []string{*kind}
	default:
		fmt.Fprintf(stderr, "sxfuzz: -kind must be mj or ir, got %q\n", *kind)
		return 2
	}
	if *verbose {
		cfg.Log = stderr
	}
	res, err := difftest.Campaign(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "sxfuzz: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.OK {
		for _, d := range res.FailureDetails {
			fmt.Fprintf(stderr, "sxfuzz: FAIL %s\n", d)
		}
		if *chaos && res.Caught == 0 {
			fmt.Fprintln(stderr, "sxfuzz: FAIL chaos self-check caught no planted miscompile — the oracle is blind")
		}
		return 1
	}
	return 0
}
