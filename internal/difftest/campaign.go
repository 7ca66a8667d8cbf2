package difftest

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"signext/internal/guard"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/progen"
)

// CampaignConfig drives a timed multi-worker differential-testing run.
type CampaignConfig struct {
	Seed     int64         // base seed; program i uses Seed+i
	Count    int           // program budget (0 = run until Duration)
	Duration time.Duration // wall budget (0 = run until Count)
	Workers  int           // default runtime.GOMAXPROCS(0)
	Kinds    []string      // generator kinds to alternate over (default mj, ir)
	Gen      progen.Config
	Check    Config

	// HeavySample runs the full metamorphic property set (parallel identity,
	// budget monotonicity, fixpoint convergence) on every Nth program and
	// the oracle-only fast set on the rest. 1 checks everything everywhere;
	// default 5.
	HeavySample int

	// Chaos switches the campaign to fault-injection self-checking: every
	// program is compiled cleanly, one extension is deleted from the
	// optimized build (guard.Injector.DropExt — the "optimizer removed an
	// extension it must not" fault), and the oracle must catch the
	// miscompile. A campaign that catches nothing proves the engine blind.
	Chaos bool

	// Corpus, when set, replays every .ir reproducer/corpus entry in the
	// directory before the generated programs — directed seeds (such as the
	// generated peephole-rule corpus) run first so a short smoke budget
	// still covers every rule.
	Corpus string

	Minimize  bool   // shrink failures and write reproducers
	MaxRepros int    // reproducers to emit (default 3)
	OutDir    string // reproducer directory (default internal/difftest/testdata)
	Log       io.Writer
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Count <= 0 && c.Duration <= 0 {
		c.Count = 100
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []string{"mj", "ir"}
	}
	if c.HeavySample <= 0 {
		c.HeavySample = 5
	}
	if c.MaxRepros <= 0 {
		c.MaxRepros = 3
	}
	if c.OutDir == "" {
		c.OutDir = filepath.Join("internal", "difftest", "testdata")
	}
	return c
}

// CampaignResult is the one-line JSON verdict sxfuzz prints.
type CampaignResult struct {
	Seed           int64    `json:"seed"`
	Programs       int      `json:"programs"`
	Skipped        int      `json:"skipped"`
	Failures       int      `json:"failures"`
	FailureDetails []string `json:"failure_details,omitempty"`
	Planted        int      `json:"planted"` // chaos mode: faults injected
	Caught         int      `json:"caught"`  // chaos mode: miscompiles the oracle caught
	Benign         int      `json:"benign"`  // chaos mode: drops invisible on this input
	Repros         []string `json:"repros,omitempty"`
	MinReproInstrs int      `json:"min_repro_instrs,omitempty"`
	ElapsedMS      int64    `json:"elapsed_ms"`
	OK             bool     `json:"ok"`
}

// finding is one failing program awaiting minimization.
type finding struct {
	idx       int
	prog      *Program
	prop      string
	machine   ir.Machine
	detail    string
	chaosSeed int64
}

// Campaign generates and checks programs on a worker pool until the count
// or wall budget runs out, then (optionally) minimizes findings into
// reproducer files. The program set is determined by Seed and Count alone —
// worker scheduling cannot change which programs are generated, only how
// long the run takes.
func Campaign(cfg CampaignConfig) (*CampaignResult, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	var deadline time.Time
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}

	res := &CampaignResult{Seed: cfg.Seed}
	var findings []finding
	if cfg.Corpus != "" {
		if err := replayCorpus(cfg, res); err != nil {
			return res, err
		}
	}
	var mu sync.Mutex
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				seed := cfg.Seed + int64(i)
				kind := cfg.Kinds[i%len(cfg.Kinds)]
				p, err := Generate(seed, kind, cfg.Gen)
				mu.Lock()
				res.Programs++
				mu.Unlock()
				if err != nil {
					mu.Lock()
					res.Failures++
					res.FailureDetails = append(res.FailureDetails, err.Error())
					mu.Unlock()
					continue
				}
				if cfg.Chaos {
					planted, caught, detail := chaosCheck(p, seed, cfg.Check)
					mu.Lock()
					if planted {
						res.Planted++
						if caught {
							res.Caught++
							findings = append(findings, finding{
								idx: i, prog: p, prop: "chaos-dropext",
								machine: cfg.Check.withDefaults().Machines[0],
								detail:  detail, chaosSeed: seed,
							})
						} else {
							res.Benign++
						}
					}
					mu.Unlock()
					continue
				}
				c := cfg.Check
				if cfg.HeavySample > 1 && i%cfg.HeavySample != 0 {
					c.OracleOnly = true
				}
				fails, skipped := Check(p, c)
				mu.Lock()
				if skipped {
					res.Skipped++
				}
				for _, f := range fails {
					res.Failures++
					detail := fmt.Sprintf("seed %d (%s): %s", seed, kind, f)
					res.FailureDetails = append(res.FailureDetails, detail)
					findings = append(findings, finding{
						idx: i, prog: p, prop: f.Prop, machine: f.Machine, detail: detail,
					})
				}
				if cfg.Log != nil && res.Programs%200 == 0 {
					fmt.Fprintf(cfg.Log, "sxfuzz: %d programs, %d failures, %d skipped (%.1fs)\n",
						res.Programs, res.Failures, res.Skipped, time.Since(start).Seconds())
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := 0; cfg.Count <= 0 || i < cfg.Count; i++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		select {
		case idxCh <- i:
		case <-time.After(time.Minute):
			break feed // workers wedged; bail out rather than hang forever
		}
	}
	close(idxCh)
	wg.Wait()

	sort.Strings(res.FailureDetails)
	sort.Slice(findings, func(a, b int) bool { return findings[a].idx < findings[b].idx })
	if cfg.Minimize {
		if err := minimizeFindings(cfg, findings, res); err != nil {
			return res, err
		}
	}
	res.ElapsedMS = time.Since(start).Milliseconds()
	res.OK = res.Failures == 0 && (!cfg.Chaos || res.Caught >= 1)
	return res, nil
}

// replayCorpus runs every directed corpus entry under Corpus through the
// property its "; prop:" header names (plus the campaign's configured set),
// focused on the "; rule:" it targets when one is named (see configFor).
// Entries count as programs; a failing entry fails the campaign like any
// generated program.
func replayCorpus(cfg CampaignConfig, res *CampaignResult) error {
	paths, err := filepath.Glob(filepath.Join(cfg.Corpus, "*.ir"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		r, err := ParseRepro(data)
		if err != nil {
			return fmt.Errorf("corpus %s: %w", path, err)
		}
		res.Programs++
		fails, skipped := Check(&Program{Kind: r.Kind, Seed: r.Seed, Prog: r.Prog}, configFor(cfg.Check, r.Prop, r.Rule))
		if skipped {
			res.Skipped++
		}
		for _, f := range fails {
			res.Failures++
			res.FailureDetails = append(res.FailureDetails,
				fmt.Sprintf("corpus %s: %s", filepath.Base(path), f))
		}
	}
	if cfg.Log != nil && len(paths) > 0 {
		fmt.Fprintf(cfg.Log, "sxfuzz: replayed %d corpus entries, %d failures\n",
			len(paths), res.Failures)
	}
	return nil
}

// minimizeFindings shrinks the first MaxRepros findings (one per distinct
// property, preferring earlier programs) and writes reproducer files.
func minimizeFindings(cfg CampaignConfig, findings []finding, res *CampaignResult) error {
	written := 0
	seenProp := map[string]int{}
	for _, f := range findings {
		if written >= cfg.MaxRepros {
			break
		}
		// Cap reproducers per property so one noisy property cannot crowd
		// out the rest; chaos findings all share one property by design, so
		// the cap does not apply there.
		if f.chaosSeed == 0 && seenProp[f.prop] >= 2 {
			continue
		}
		pred := propPredicate(f.prop, f.machine, cfg.Check)
		if f.chaosSeed != 0 {
			// Replaying the injector's RNG on a shrunk candidate would pick a
			// different extension, so a chaos finding shrinks under the
			// deterministic generalization ChaosCaught; the seed stays in
			// the reproducer header for provenance only.
			pred = func(cand *ir.Program) bool { return ChaosCaught(cand, f.machine, shrinkMaxSteps) }
		}
		if !pred(f.prog.Prog) {
			continue // not reproducible under the shrink budget; keep the seed in the log
		}
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "sxfuzz: minimizing seed %d [%s] from %d instructions...\n",
				f.prog.Seed, f.prop, NumInstrs(f.prog.Prog))
		}
		small := Shrink(f.prog.Prog, pred)
		r := &Repro{
			Seed: f.prog.Seed, Kind: f.prog.Kind, Prop: f.prop,
			Machine: f.machine, Chaos: f.chaosSeed, Detail: f.detail, Prog: small,
		}
		path, err := saveRepro(cfg.OutDir, r)
		if err != nil {
			return err
		}
		n := NumInstrs(small)
		if res.MinReproInstrs == 0 || n < res.MinReproInstrs {
			res.MinReproInstrs = n
		}
		res.Repros = append(res.Repros, path)
		seenProp[f.prop]++
		written++
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "sxfuzz: wrote %s (%d instructions)\n", path, n)
		}
	}
	return nil
}

// chaosCheck plants one DropExt fault in the optimized build and asks the
// oracle. Reports whether a fault was planted and whether it was caught; an
// uncaught drop is benign (invisible on this input), not a miss — there is
// no ground truth that a specific extension is load-bearing.
func chaosCheck(p *Program, chaosSeed int64, c Config) (planted, caught bool, detail string) {
	c = c.withDefaults()
	mach := c.Machines[0]
	res, err := jit.Compile(p.Prog, jit.Options{
		Variant: jit.All, Machine: mach, GeneralOpts: true, Checked: true, Parallelism: 1,
	})
	if err != nil {
		return false, false, ""
	}
	mut := res.Prog.Clone()
	inj := guard.NewInjector(chaosSeed)
	injected := false
	for _, fn := range mut.Funcs {
		if inj.DropExt(fn) {
			injected = true
			break
		}
	}
	if !injected {
		return false, false, ""
	}
	_, oerr := guard.Oracle{Machine: mach, MaxSteps: c.MaxSteps}.Check(p.Prog, mut)
	if oerr != nil {
		return true, true, oerr.Error()
	}
	return true, false, ""
}

// ChaosCaught compiles prog through the full pipeline and then deletes each
// remaining same-register extension from the optimized build, one at a time
// in program order, asking the oracle about each mutant. It reports whether
// at least one deletion is a caught miscompile — the replay check for
// chaos reproducers.
func ChaosCaught(prog *ir.Program, mach ir.Machine, maxSteps int64) bool {
	// Checked compilation matches the main engine: a candidate the deep
	// verifier rejects (e.g. the shrinker deleted a reaching definition) is
	// not a valid reproducer even if the interpreter tolerates it.
	res, err := jit.Compile(prog, jit.Options{
		Variant: jit.All, Machine: mach, GeneralOpts: true, Checked: true, Parallelism: 1,
	})
	if err != nil {
		return false
	}
	for k := 0; ; k++ {
		mut := res.Prog.Clone()
		if !dropExtAt(mut, k) {
			return false
		}
		if _, oerr := (guard.Oracle{Machine: mach, MaxSteps: maxSteps}).Check(prog, mut); oerr != nil {
			return true
		}
	}
}

// dropExtAt deletes the k-th same-register extension of prog in program
// order, reporting whether one existed.
func dropExtAt(prog *ir.Program, k int) bool {
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			for _, ins := range b.Instrs {
				if ins.IsExt() && ins.Dst == ins.Srcs[0] {
					if k == 0 {
						b.Remove(ins)
						return true
					}
					k--
				}
			}
		}
	}
	return false
}

// propPredicate replays the property check on a candidate, on the finding's
// machine, and requires a failure of the same property. configFor adds what
// the property needs; everything else runs in oracle-only mode.
func propPredicate(prop string, mach ir.Machine, c Config) Predicate {
	c.Machines = []ir.Machine{mach}
	c.OracleOnly = true
	c = configFor(c, prop, "").withDefaults()
	c.MaxSteps = shrinkMaxSteps
	return func(cand *ir.Program) bool {
		fails, skipped := Check(&Program{Kind: "ir", Prog: cand}, c)
		if skipped {
			return false
		}
		for _, f := range fails {
			if f.Prop == prop {
				return true
			}
		}
		return false
	}
}

// saveRepro writes one reproducer into dir, creating it if needed.
func saveRepro(dir string, r *Repro) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.Filename())
	if err := os.WriteFile(path, r.Marshal(), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
