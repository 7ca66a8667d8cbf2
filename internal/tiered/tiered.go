// Package tiered is the execution manager of the paper's combined
// interpreter and dynamic compiler: every function starts in the profiling
// interpreter tier (its 32-bit source form, Mode32), and functions whose
// hotness weight — entry count plus observed branch events — crosses a
// configurable threshold are promoted by recompiling through the full
// guarded jit pipeline with the profile gathered so far. Promoted functions
// run their compiled 64-bit bodies (Mode64) in the same program as the
// interpreter-tier remainder; the mix is sound because both calling
// conventions pass sign-extended narrow arguments and returns.
//
// A function's branch profile freezes at promotion: later runs execute its
// compiled body in Mode64, whose frames the interpreter does not profile
// (their instruction IDs no longer correspond to the source form), so each
// run's profile holds only interpreter-tier functions' counts.
// Because the compiler consumes only a function's own branch counts, the
// body compiled at promotion time is bit-identical to one compiled later
// with the final gathered profile — the invariant the difftest
// profile-identity property checks against one-shot compilation.
package tiered

import (
	"fmt"
	"sort"
	"time"

	"signext/internal/interp"
	"signext/internal/ir"
	"signext/internal/jit"
	"signext/internal/profile"
)

// Tier identifies which form of a function executes.
type Tier uint8

const (
	// TierInterp is the profiling interpreter tier: the 32-bit source form.
	TierInterp Tier = iota
	// TierCompiled is the optimized tier: the jit-compiled 64-bit form.
	TierCompiled
)

func (t Tier) String() string {
	if t == TierCompiled {
		return "compiled"
	}
	return "interp"
}

// DefaultHotThreshold is the promotion threshold for a zero
// Config.HotThreshold.
const DefaultHotThreshold = 100

// Config configures a Manager.
type Config struct {
	// Options is the jit pipeline configuration used for every promotion
	// compile and for Finalize. Options.Profile is overwritten with the
	// gathered profile on each compile.
	Options jit.Options

	// Entry is the function each Invoke executes. Default "main".
	Entry string

	// HotThreshold is the hotness weight (calls + branch events, seeded by
	// Seed) at which a function leaves the interpreter tier. Default
	// DefaultHotThreshold; negative means never promote.
	HotThreshold int64

	// MaxSteps bounds each invocation's interpreter steps (0 = interp
	// default).
	MaxSteps int64

	// Seed warm-starts the profile, e.g. from a persisted profile
	// (sxelim -profile-in). Seeded weight counts toward promotion, so hot
	// functions from a previous process can tier up before their first run.
	Seed profile.Profile
}

// Promotion records one function's tier-up.
type Promotion struct {
	Func       string
	Invocation int           // invocation after which it was promoted (0 = seeded)
	Weight     int64         // hotness weight at promotion time
	Wall       time.Duration // wall clock of the promotion's compile round
}

// FuncState is one function's current tier for inspection and CLI display.
type FuncState struct {
	Name       string
	Tier       Tier
	Weight     int64
	PromotedAt int // invocation after which it tiered up; -1 if still interpreting
}

// Telemetry aggregates the runtime's tier behaviour. Its times are measured
// wall clock; the runtime models no tier cost.
type Telemetry struct {
	Invocations int
	TierUps     int           // functions promoted to the compiled tier
	TierUpWall  time.Duration // total wall clock of promotion compile rounds
	InvokeWall  time.Duration // total wall clock of the Invoke executions, compiles excluded
}

// Manager owns a tiered execution of one program. It is not safe for
// concurrent use.
type Manager struct {
	cfg    Config
	src    *ir.Program // pristine 32-bit source: every compile starts here
	mixed  *ir.Program // executing program: source bodies + promoted compiled bodies
	prof   profile.Profile
	tier   map[string]Tier
	prom   []Promotion
	promAt map[string]int
	tel    Telemetry
}

// New creates a Manager for prog (32-bit frontend form; not modified). A
// non-nil cfg.Seed is checked for promotions immediately, so functions hot
// in a previous process skip the cold tier.
func New(prog *ir.Program, cfg Config) (*Manager, error) {
	if cfg.Entry == "" {
		cfg.Entry = "main"
	}
	if cfg.HotThreshold == 0 {
		cfg.HotThreshold = DefaultHotThreshold
	}
	m := &Manager{
		cfg:    cfg,
		src:    prog,
		mixed:  prog.Clone(),
		prof:   profile.Profile{}.Merge(cfg.Seed),
		tier:   map[string]Tier{},
		promAt: map[string]int{},
	}
	for _, fn := range prog.Funcs {
		m.tier[fn.Name] = TierInterp
	}
	if cfg.Seed != nil {
		if err := m.promote(0); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Invoke executes the entry function once on the current tier mix, merges
// the run's profile (entry and branch counts of the functions still in the
// interpreter tier) into the gathered one, then promotes functions that
// crossed the hotness threshold. The interp.Result is returned even when
// execution trapped (the profile of the executed prefix still counts);
// promotion is skipped on error.
func (m *Manager) Invoke() (*interp.Result, error) {
	m.tel.Invocations++
	inv := m.tel.Invocations

	t0 := time.Now()
	res, err := interp.Run(m.mixed, m.cfg.Entry, interp.Options{
		Mode:        interp.Mode64,
		Machine:     m.cfg.Options.Machine,
		MaxArrayLen: m.cfg.Options.MaxArrayLen,
		MaxSteps:    m.cfg.MaxSteps,
		Profile:     true,
		FuncMode: func(name string) interp.Mode {
			if m.tier[name] == TierCompiled {
				return interp.Mode64
			}
			return interp.Mode32
		},
	})
	m.tel.InvokeWall += time.Since(t0)
	m.prof.Merge(res.Profile)
	if err != nil {
		return res, err
	}
	if perr := m.promote(inv); perr != nil {
		return res, perr
	}
	return res, nil
}

// promote recompiles and swaps in every interpreter-tier function whose
// weight reached the threshold. One compile round serves all of them: the
// jit pipeline is whole-program, and with a shared Options.Cache the
// already-promoted functions are warm hits.
func (m *Manager) promote(inv int) error {
	if m.cfg.HotThreshold < 0 {
		return nil
	}
	var hot []string
	for _, fn := range m.src.Funcs {
		if m.tier[fn.Name] == TierInterp && m.prof.Weight(fn.Name) >= m.cfg.HotThreshold {
			hot = append(hot, fn.Name)
		}
	}
	if len(hot) == 0 {
		return nil
	}
	o := m.cfg.Options
	o.Profile = m.prof
	t0 := time.Now()
	res, err := jit.Compile(m.src, o)
	wall := time.Since(t0)
	if err != nil {
		return fmt.Errorf("tiered: promotion compile (invocation %d): %w", inv, err)
	}
	for _, name := range hot {
		cf := res.Prog.Func(name)
		if cf == nil {
			return fmt.Errorf("tiered: compiled program lost function %s", name)
		}
		m.mixed.ReplaceFunc(cf)
		m.tier[name] = TierCompiled
		m.promAt[name] = inv
		m.prom = append(m.prom, Promotion{
			Func: name, Invocation: inv,
			Weight: m.prof.Weight(name), Wall: wall,
		})
	}
	m.tel.TierUps = len(m.prom)
	m.tel.TierUpWall += wall
	return nil
}

// Finalize compiles the whole program one-shot with the gathered profile —
// the steady-state artifact. By the frozen-profile invariant its promoted
// functions are bit-identical to the bodies the mixed program has been
// executing.
func (m *Manager) Finalize() (*jit.Result, error) {
	o := m.cfg.Options
	o.Profile = m.Profile() // the result keeps its Options; later runs must not move them
	return jit.Compile(m.src, o)
}

// Profile returns a copy of the gathered profile (seed included).
func (m *Manager) Profile() profile.Profile { return m.prof.Clone() }

// Promotions returns every tier-up so far, in promotion order.
func (m *Manager) Promotions() []Promotion { return append([]Promotion(nil), m.prom...) }

// Telemetry returns the aggregate tier telemetry.
func (m *Manager) Telemetry() Telemetry { return m.tel }

// Tier returns fn's current tier.
func (m *Manager) Tier(fn string) Tier { return m.tier[fn] }

// States returns the per-function tier state, sorted by name.
func (m *Manager) States() []FuncState {
	out := make([]FuncState, 0, len(m.src.Funcs))
	for _, fn := range m.src.Funcs {
		s := FuncState{
			Name:       fn.Name,
			Tier:       m.tier[fn.Name],
			Weight:     m.prof.Weight(fn.Name),
			PromotedAt: -1,
		}
		if s.Tier == TierCompiled {
			s.PromotedAt = m.promAt[fn.Name]
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
