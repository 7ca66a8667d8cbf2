// Command sxelim compiles a MiniJava source file under a chosen sign
// extension elimination variant and reports what happened.
//
// Usage:
//
//	sxelim prog.mj                      # compile with the full algorithm, run
//	sxelim -variant baseline prog.mj    # pick a Table 1/2 variant
//	sxelim -dump prog.mj                # print the optimized IR
//	sxelim -asm prog.mj                 # print the lowered machine code
//	sxelim -check prog.mj               # guarded pipeline + differential oracle
//	sxelim -peep prog.mj                # rule-table peephole pass after extelim
//	sxelim -peep -peep-rules div-magic,shl-shl prog.mj   # restrict the rule table
//	sxelim -compare prog.mj             # dynamic counts under all variants
//	sxelim -cache -cache-mb 128 prog.mj # content-addressed compile cache
//	sxelim -tiered prog.mj              # tiered runtime: interp tier + hot promotion
//	sxelim -tiered -profile-out p.json prog.mj   # persist the gathered profile
//	sxelim -profile-in p.json prog.mj   # compile with a persisted profile
//	sxelim prog.ir                      # compile textual IR (ir.ParseProgram)
//
// Any failure — bad input, compile error, oracle divergence — exits with
// code 1 and a one-line diagnostic; sxelim never surfaces a panic.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"signext"
	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
)

// usageError distinguishes command-line mistakes (exit 2) from input or
// compilation failures (exit 1).
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	err := func() (err error) {
		// The guarded pipeline already converts phase panics into per-function
		// fallbacks; this is the last line of defense for everything else
		// (frontend, flag handling, printing), so a user never sees a stack
		// trace from a one-line diagnostic tool.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("internal error: %v", r)
			}
		}()
		return runMain(args, stdout, stderr)
	}()
	if err != nil {
		fmt.Fprintln(stderr, "sxelim:", err)
		if _, ok := err.(usageError); ok {
			return 2
		}
		return 1
	}
	return 0
}

func runMain(args []string, stdout, stderr io.Writer) error {
	flag := flag.NewFlagSet("sxelim", flag.ContinueOnError)
	flag.SetOutput(stderr)
	variant := flag.String("variant", "all", "algorithm variant (baseline, genuse, first, basic, insert, order, insert-order, array, array-insert, array-order, all-pde, all)")
	machine := flag.String("machine", "ia64", "machine model: ia64 or ppc64")
	dump := flag.Bool("dump", false, "print the optimized IR")
	asm := flag.Bool("asm", false, "print the lowered machine code")
	dot := flag.Bool("dot", false, "print the optimized CFG in Graphviz DOT syntax")
	trace := flag.Int64("trace", 0, "trace the first N executed instructions to stderr")
	run := flag.Bool("run", true, "execute the compiled program")
	compare := flag.Bool("compare", false, "report dynamic extension counts under every variant")
	profile := flag.Bool("profile", true, "use interpreter branch profiles for order determination")
	check := flag.Bool("check", false, "guarded pipeline: verify IR at phase boundaries and run the differential oracle")
	budget := flag.Int("budget", 0, "per-function elimination work budget (0 = unlimited)")
	peep := flag.Bool("peep", false, "run the rule-table peephole pass after the sign extension phase")
	peepRules := flag.String("peep-rules", "", "comma-separated peephole rule names to enable (with -peep; empty = all)")
	parallel := flag.Int("parallel", 0, "compile-driver worker count (0 = all CPUs, 1 = sequential)")
	useCache := flag.Bool("cache", false, "serve per-function compilations from a content-addressed compile cache")
	cacheMB := flag.Int64("cache-mb", 64, "compile cache capacity in MiB (with -cache)")
	tiered := flag.Bool("tiered", false, "run under the tiered runtime: profiling interpreter tier + hot-function promotion through the jit pipeline")
	hotThreshold := flag.Int64("hot-threshold", 0, "hotness weight (calls + branch events) promoting a function out of the interpreter tier (0 = default 100, negative = never)")
	invocations := flag.Int("invocations", 3, "number of main invocations under -tiered")
	profileOut := flag.String("profile-out", "", "write the gathered branch profile as JSON to this file (\"-\" = stdout)")
	profileIn := flag.String("profile-in", "", "load a JSON branch profile: tier-up seed with -tiered, static compile profile otherwise")
	if err := flag.Parse(args); err != nil {
		return usageError(err.Error())
	}

	if flag.NArg() != 1 {
		return usageError("usage: sxelim [flags] file.mj")
	}
	if *tiered && *compare {
		return usageError("-tiered and -compare are mutually exclusive")
	}
	var ruleFilter []string
	if *peepRules != "" {
		for _, name := range strings.Split(*peepRules, ",") {
			ruleFilter = append(ruleFilter, strings.TrimSpace(name))
		}
		if err := signext.ValidatePeepRules(ruleFilter); err != nil {
			return usageError(err.Error())
		}
	}
	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}
	src := string(srcBytes)

	// Textual IR input bypasses the MiniJava frontend.
	var irProg *ir.Program
	if strings.HasSuffix(flag.Arg(0), ".ir") {
		irProg, err = ir.ParseProgram(src)
		if err != nil {
			return err
		}
	}
	var cache signext.CacheHandle
	if *useCache {
		cache = signext.NewCache(*cacheMB << 20)
	}
	var seed signext.Profile
	if *profileIn != "" {
		data, err := os.ReadFile(*profileIn)
		if err != nil {
			return err
		}
		seed, err = signext.ParseProfile(data)
		if err != nil {
			return fmt.Errorf("%s: %w", *profileIn, err)
		}
	}
	compile := func(o signext.Options) (*signext.Result, error) {
		o.Checked = o.Checked || *check
		o.CheckedRun = o.CheckedRun || *check
		o.ElimBudget = *budget
		o.Peep = *peep
		o.PeepRules = ruleFilter
		o.Parallelism = *parallel
		o.Cache = cache
		o.Profile = seed // nil without -profile-in
		res, err := func() (res *signext.Result, err error) {
			if irProg != nil {
				return signext.CompileProgram(irProg, o)
			}
			return signext.CompileSource(src, o)
		}()
		if res != nil {
			for _, fb := range res.Fallbacks() {
				fmt.Fprintf(stderr, "sxelim: fallback: %s disabled for %s: %s\n", fb.Phase, fb.Func, fb.Reason)
			}
		}
		return res, err
	}

	mach, err := ir.ParseMachine(*machine)
	if err != nil {
		return usageError(err.Error())
	}
	v, err := jit.ParseVariant(*variant)
	if err != nil {
		return usageError(err.Error())
	}

	writeProfile := func(p signext.Profile) error {
		if *profileOut == "" {
			return nil
		}
		data := p.Marshal()
		if *profileOut == "-" {
			_, err := stdout.Write(data)
			return err
		}
		return os.WriteFile(*profileOut, data, 0o644)
	}
	// Without -tiered, -profile-out persists a single profiling-tier run.
	gatherAndWrite := func() error {
		if *profileOut == "" {
			return nil
		}
		prog := irProg
		if prog == nil {
			cu, err := minijava.Compile(src)
			if err != nil {
				return err
			}
			prog = cu.Prog
		}
		p, err := jit.ProfileRun(prog, "main", 0)
		if err != nil {
			return err
		}
		return writeProfile(p)
	}

	if *tiered {
		o := signext.TieredOptions{
			Options: signext.Options{
				Variant: v, Machine: mach,
				Checked: *check, CheckedRun: *check,
				ElimBudget: *budget, Parallelism: *parallel, Cache: cache,
				Peep: *peep, PeepRules: ruleFilter,
			},
			Invocations:  *invocations,
			HotThreshold: *hotThreshold,
			Seed:         seed,
		}
		tr, err := func() (*signext.TieredResult, error) {
			if irProg != nil {
				return signext.RunTiered(irProg, o)
			}
			return signext.RunTieredSource(src, o)
		}()
		if err != nil {
			return err
		}
		for _, fb := range tr.Fallbacks() {
			fmt.Fprintf(stderr, "sxelim: fallback: %s disabled for %s: %s\n", fb.Phase, fb.Func, fb.Reason)
		}
		tel := tr.Telemetry
		fmt.Fprintf(stdout, "tiered: %d invocations, %d promotions\n", tel.Invocations, tel.TierUps)
		for _, p := range tr.Promotions {
			fmt.Fprintf(stdout, "tiered: promoted %s (invocation %d, weight %d)\n", p.Func, p.Invocation, p.Weight)
		}
		// The tier mix must never change observable behaviour: every
		// invocation's output has to equal the steady-state (one-shot)
		// artifact's.
		rr, err := tr.Run()
		if err != nil {
			return fmt.Errorf("execution failed: %w", err)
		}
		for i, out := range tr.Outputs {
			if out != rr.Output {
				return fmt.Errorf("tiered invocation %d output diverged from the one-shot compile:\n%q\n%q", i+1, out, rr.Output)
			}
		}
		fmt.Fprintf(stdout, "tiered: identity: %d invocation outputs match the one-shot compile\n", len(tr.Outputs))
		printCacheStats(stderr, cache)
		if *check {
			fmt.Fprintln(stdout, "oracle: optimized output and extension counts check out against the baseline reference")
		}
		if *dump {
			for _, fn := range tr.IR().Funcs {
				fmt.Fprintln(stdout, fn.Format())
			}
		}
		if *run {
			fmt.Fprint(stdout, rr.Output)
			fmt.Fprintf(stdout, "[dynamic 32-bit sign extensions: %d, cycles: %d]\n", rr.DynamicExts, rr.Cycles)
		}
		return writeProfile(tr.Profile)
	}

	if *compare {
		var base int64
		for _, vv := range signext.Variants {
			res, err := compile(signext.Options{
				Variant: vv, Machine: mach, WithProfile: *profile,
			})
			if err != nil {
				return fmt.Errorf("%v: %w", vv, err)
			}
			rr, err := res.Run()
			if err != nil {
				return fmt.Errorf("%v: execution failed: %w", vv, err)
			}
			if vv == signext.VariantBaseline {
				base = rr.DynamicExts
			}
			pct := 100.0
			if base > 0 {
				pct = 100 * float64(rr.DynamicExts) / float64(base)
			}
			fmt.Fprintf(stdout, "%-28s dyn ext32 %12d (%6.2f%%)  static %4d  cycles %12d\n",
				vv, rr.DynamicExts, pct, res.StaticExts(), rr.Cycles)
		}
		printCacheStats(stderr, cache)
		return gatherAndWrite()
	}

	res, err := compile(signext.Options{
		Variant: v, Machine: mach, WithProfile: *profile,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "variant %s, machine %s: %d extensions eliminated, %d inserted, %d remain\n",
		v, mach, res.Eliminated(), res.Inserted(), res.StaticExts())
	if *peep {
		fmt.Fprintf(stdout, "peep: %d rule-table rewrites\n", res.PeepRewrites())
	}
	printCacheStats(stderr, cache)
	if *check {
		fmt.Fprintln(stdout, "oracle: optimized output and extension counts check out against the baseline reference")
	}
	if *dump {
		for _, fn := range res.IR().Funcs {
			fmt.Fprintln(stdout, fn.Format())
		}
	}
	if *asm {
		for _, fn := range res.IR().Funcs {
			fmt.Fprintln(stdout, res.Assembly(fn.Name))
		}
	}
	if *dot {
		for _, fn := range res.IR().Funcs {
			fmt.Fprintln(stdout, fn.Dot())
		}
	}
	if *run {
		var rr *signext.RunResult
		var err error
		if *trace > 0 {
			out, terr := interp.Run(res.IR(), "main", interp.Options{
				Mode:    interp.Mode64,
				Machine: mach,
				Trace: func(fname string, blk *ir.Block, ins *ir.Instr) {
					fmt.Fprintf(stderr, "%s\t%s\t%s\n", fname, blk, ins)
				},
				TraceLimit: *trace,
			})
			err = terr
			rr = &signext.RunResult{Output: out.Output, DynamicExts: out.Ext32(), Cycles: out.Cycles, Steps: out.Steps}
		} else {
			rr, err = res.Run()
		}
		if err != nil {
			return fmt.Errorf("execution failed: %w", err)
		}
		fmt.Fprint(stdout, rr.Output)
		fmt.Fprintf(stdout, "[dynamic 32-bit sign extensions: %d, cycles: %d]\n", rr.DynamicExts, rr.Cycles)
	}
	return gatherAndWrite()
}

// printCacheStats summarizes compile-cache activity on stderr; a nil cache
// prints nothing, so program output stays unchanged without -cache.
func printCacheStats(stderr io.Writer, cache signext.CacheHandle) {
	if cache == nil {
		return
	}
	s := cache.Stats()
	fmt.Fprintf(stderr, "sxelim: cache: %d hits, %d misses, %d evictions, %d entries, %d bytes\n",
		s.Hits, s.Misses, s.Evictions, s.Entries, s.Bytes)
}
