package difftest

import (
	"fmt"
	"strconv"
	"strings"

	"signext/internal/ir"
)

// Repro is a self-contained, minimized reproducer: a 32-bit-form IR program
// plus everything needed to replay the failing property. The on-disk form is
// the canonical textual IR preceded by "; key: value" comment headers, so a
// reproducer is at once a regression-test input, a valid sxelim input
// (`sxelim repro.ir`), and readable in any editor.
type Repro struct {
	Seed    int64  // generator seed that produced the original program
	Kind    string // generator kind: "mj" or "ir"
	Prop    string // failed property's table name, or "chaos-dropext" for a planted fault
	Machine ir.Machine
	Chaos   int64  // fault-injector seed for a planted fault; 0 otherwise
	Rule    string // peephole rule a directed corpus entry targets; "" otherwise
	Detail  string // one-line description of the original failure
	Prog    *ir.Program
}

// Marshal renders the reproducer in its on-disk form.
func (r *Repro) Marshal() []byte {
	var b strings.Builder
	b.WriteString("; sxfuzz reproducer — regenerate with: sxfuzz -minimize (see EXPERIMENTS.md)\n")
	fmt.Fprintf(&b, "; seed: %d\n", r.Seed)
	fmt.Fprintf(&b, "; kind: %s\n", r.Kind)
	fmt.Fprintf(&b, "; prop: %s\n", r.Prop)
	fmt.Fprintf(&b, "; machine: %v\n", r.Machine)
	if r.Chaos != 0 {
		fmt.Fprintf(&b, "; chaos: %d\n", r.Chaos)
	}
	if r.Rule != "" {
		fmt.Fprintf(&b, "; rule: %s\n", r.Rule)
	}
	if r.Detail != "" {
		fmt.Fprintf(&b, "; detail: %s\n", oneLine(r.Detail))
	}
	b.WriteString(formatProgram(r.Prog))
	return []byte(b.String())
}

// ParseRepro decodes the on-disk form; the IR parser itself skips the
// comment headers, which are re-read here for the metadata.
func ParseRepro(data []byte) (*Repro, error) {
	r := &Repro{Kind: "ir"}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, ";") {
			continue
		}
		kv := strings.SplitN(strings.TrimSpace(strings.TrimPrefix(line, ";")), ":", 2)
		if len(kv) != 2 {
			continue
		}
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		switch key {
		case "seed":
			r.Seed, _ = strconv.ParseInt(val, 10, 64)
		case "kind":
			r.Kind = val
		case "prop":
			r.Prop = val
		case "machine":
			m, err := ir.ParseMachine(val)
			if err != nil {
				return nil, fmt.Errorf("difftest: reproducer: %w", err)
			}
			r.Machine = m
		case "chaos":
			r.Chaos, _ = strconv.ParseInt(val, 10, 64)
		case "rule":
			r.Rule = val
		case "detail":
			r.Detail = val
		}
	}
	if r.Prop == "" {
		return nil, fmt.Errorf("difftest: reproducer has no \"; prop:\" header")
	}
	prog, err := ir.ParseProgram(string(data))
	if err != nil {
		return nil, fmt.Errorf("difftest: reproducer IR: %w", err)
	}
	if prog.Func("main") == nil {
		return nil, fmt.Errorf("difftest: reproducer has no main function")
	}
	r.Prog = prog
	return r, nil
}

// Filename is the canonical reproducer name: property, kind and seed
// identify a finding uniquely within a campaign.
func (r *Repro) Filename() string {
	return fmt.Sprintf("repro_%s_%s_seed%d.ir", r.Prop, r.Kind, r.Seed)
}

func oneLine(s string) string {
	return strings.Join(strings.Fields(strings.ReplaceAll(s, "\n", " ")), " ")
}
