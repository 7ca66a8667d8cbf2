// Package bench is the experiment harness: it reruns the paper's evaluation
// (Tables 1-3, Figures 11-14) on the reproduction's workloads and formats
// the results in the paper's layout.
package bench

import (
	"fmt"
	"strings"
	"time"

	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/minijava"
	"signext/internal/workloads"
)

// SuiteResult holds every measurement for one benchmark suite on one
// machine model: the dynamic extension counts and cycle totals per variant
// and workload, plus compile-time breakdowns.
type SuiteResult struct {
	Suite     string
	Machine   ir.Machine
	Names     []string                // workload names, table column order
	Ext       map[jit.Variant][]int64 // dynamic 32-bit extensions
	ExtAll    map[jit.Variant][]int64 // all widths
	Cycles    map[jit.Variant][]int64 // modelled machine cycles
	Timing    []jit.Timing            // per workload, All variant
	Mismatch  []string                // workloads whose output diverged (must be empty)
	Reference []string                // reference outputs
}

// Options configures a suite run.
type Options struct {
	Machine     ir.Machine
	UseProfile  bool // feed interpreter branch profiles to order determination
	Variants    []jit.Variant
	MaxArrayLen int64
	Parallelism int // jit.Options.Parallelism: 0 = all CPUs, 1 = sequential
}

// RunSuite compiles and executes every workload under every variant.
func RunSuite(ws []workloads.Workload, o Options) (*SuiteResult, error) {
	if len(o.Variants) == 0 {
		o.Variants = jit.Variants
	}
	res := &SuiteResult{
		Machine: o.Machine,
		Ext:     map[jit.Variant][]int64{},
		ExtAll:  map[jit.Variant][]int64{},
		Cycles:  map[jit.Variant][]int64{},
	}
	if len(ws) > 0 {
		res.Suite = ws[0].Suite
	}
	for _, v := range o.Variants {
		res.Ext[v] = make([]int64, len(ws))
		res.ExtAll[v] = make([]int64, len(ws))
		res.Cycles[v] = make([]int64, len(ws))
	}
	res.Timing = make([]jit.Timing, len(ws))
	for wi, w := range ws {
		res.Names = append(res.Names, w.Name)
		cu, err := minijava.Compile(w.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		ref, err := interp.Run(cu.Prog, "main", interp.Options{
			Mode: interp.Mode32, Profile: o.UseProfile,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: reference run: %w", w.Name, err)
		}
		res.Reference = append(res.Reference, ref.Output)
		for _, v := range o.Variants {
			comp, err := jit.Compile(cu.Prog, jit.Options{
				Variant:     v,
				Machine:     o.Machine,
				MaxArrayLen: o.MaxArrayLen,
				GeneralOpts: true,
				Profile:     ref.Profile, // nil unless UseProfile
				Parallelism: o.Parallelism,
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.Name, v, err)
			}
			if v == jit.All {
				res.Timing[wi] = comp.Timing
			}
			out, err := jit.Execute(comp, "main")
			if err != nil {
				return nil, fmt.Errorf("%s/%s: execution: %w", w.Name, v, err)
			}
			if out.Output != ref.Output {
				res.Mismatch = append(res.Mismatch, fmt.Sprintf("%s/%s", w.Name, v))
			}
			res.Ext[v][wi] = out.Ext32()
			res.ExtAll[v][wi] = out.ExtTotal()
			res.Cycles[v][wi] = out.Cycles
		}
	}
	return res, nil
}

// Pct returns the variant's dynamic count as a percentage of baseline for
// workload wi.
func (r *SuiteResult) Pct(v jit.Variant, wi int) float64 {
	base := r.Ext[jit.Baseline][wi]
	if base == 0 {
		return 100
	}
	return 100 * float64(r.Ext[v][wi]) / float64(base)
}

// AvgPct is the arithmetic-mean percentage over the suite (the paper's
// "average" column).
func (r *SuiteResult) AvgPct(v jit.Variant) float64 {
	s := 0.0
	for wi := range r.Names {
		s += r.Pct(v, wi)
	}
	return s / float64(len(r.Names))
}

// Improvement returns the performance improvement of v over baseline for
// workload wi, in percent (Figures 13 and 14).
func (r *SuiteResult) Improvement(v jit.Variant, wi int) float64 {
	base := r.Cycles[jit.Baseline][wi]
	cur := r.Cycles[v][wi]
	if cur == 0 {
		return 0
	}
	return (float64(base)/float64(cur) - 1) * 100
}

// FormatCountTable renders the Table 1 / Table 2 layout: dynamic counts of
// remaining 32-bit sign extensions with percentages per variant.
func (r *SuiteResult) FormatCountTable(title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (machine: %s)\n", title, r.Machine)
	w := 0
	for _, n := range r.Names {
		if len(n) > w {
			w = len(n)
		}
	}
	fmt.Fprintf(&sb, "%-28s", "")
	for _, n := range r.Names {
		fmt.Fprintf(&sb, " %14s", n)
	}
	fmt.Fprintf(&sb, " %9s\n", "average")
	for _, v := range jit.Variants {
		counts, ok := r.Ext[v]
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "%-28s", v.String())
		for wi := range r.Names {
			fmt.Fprintf(&sb, " %14d", counts[wi])
		}
		sb.WriteString("\n")
		fmt.Fprintf(&sb, "%-28s", "")
		for wi := range r.Names {
			fmt.Fprintf(&sb, " %13.2f%%", r.Pct(v, wi))
		}
		fmt.Fprintf(&sb, " %8.2f%%\n", r.AvgPct(v))
	}
	if len(r.Mismatch) > 0 {
		fmt.Fprintf(&sb, "!! OUTPUT MISMATCHES: %s\n", strings.Join(r.Mismatch, ", "))
	}
	return sb.String()
}

// FormatPctFigure renders Figures 11/12: the percentage series per variant
// as an ASCII chart (one bar per workload per variant).
func (r *SuiteResult) FormatPctFigure(title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — remaining dynamic 32-bit sign extensions vs baseline (machine: %s)\n",
		title, r.Machine)
	for _, v := range jit.Variants {
		if _, ok := r.Ext[v]; !ok {
			continue
		}
		fmt.Fprintf(&sb, "\n%s:\n", v)
		for wi, n := range r.Names {
			p := r.Pct(v, wi)
			bar := int(p / 2)
			if bar > 60 {
				bar = 60
			}
			fmt.Fprintf(&sb, "  %-14s %6.2f%% |%s\n", n, p, strings.Repeat("#", bar))
		}
	}
	return sb.String()
}

// FormatPerfFigure renders Figures 13/14: modelled performance improvement
// over baseline.
func (r *SuiteResult) FormatPerfFigure(title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — performance improvement over baseline (cycle model, machine: %s)\n",
		title, r.Machine)
	series := []jit.Variant{jit.GenUse, jit.FirstAlgorithm, jit.BasicUDDU, jit.InsertOrder, jit.Array, jit.All}
	for _, v := range series {
		if _, ok := r.Cycles[v]; !ok {
			continue
		}
		fmt.Fprintf(&sb, "\n%s:\n", v)
		for wi, n := range r.Names {
			imp := r.Improvement(v, wi)
			bar := int(imp)
			if bar < 0 {
				bar = 0
			}
			if bar > 60 {
				bar = 60
			}
			fmt.Fprintf(&sb, "  %-14s %+6.2f%% |%s\n", n, imp, strings.Repeat("#", bar))
		}
	}
	return sb.String()
}

// FormatTimingTable renders Table 3: the compile-time breakdown.
func FormatTimingTable(results []*SuiteResult) string {
	var sb strings.Builder
	sb.WriteString("Table 3. Breakdown of JIT compilation time\n")
	fmt.Fprintf(&sb, "%-14s %24s %22s %8s\n", "", "sign ext. opts (all)", "chains+ranges (shared)", "others")
	var tse, tch, tot time.Duration
	for _, r := range results {
		for wi, n := range r.Names {
			tm := r.Timing[wi]
			total := tm.Total()
			if total == 0 {
				continue
			}
			fmt.Fprintf(&sb, "%-14s %23.2f%% %21.2f%% %7.2f%%\n", n,
				pct(tm.SignExt, total), pct(tm.Chains, total), pct(tm.Others, total))
			tse += tm.SignExt
			tch += tm.Chains
			tot += total
		}
	}
	if tot > 0 {
		fmt.Fprintf(&sb, "%-14s %23.2f%% %21.2f%% %7.2f%%\n", "average",
			pct(tse, tot), pct(tch, tot), pct(tot-tse-tch, tot))
	}
	return sb.String()
}

func pct(a, total time.Duration) float64 {
	return 100 * float64(a) / float64(total)
}
