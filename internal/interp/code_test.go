package interp

import (
	"fmt"
	"sync"
	"testing"

	"signext/internal/ir"
	"signext/internal/minijava"
	"signext/internal/target"
	"signext/internal/workloads"
)

// TestSharedCodeIdentity: runs that share one Code handle, concurrently and
// under different options, each answer exactly what a private Run answers.
// The handle holds only bytecode; cost tables, branch counters and segment
// accounting stay per run. Run it under -race.
func TestSharedCodeIdentity(t *testing.T) {
	cu, err := minijava.Compile(workloads.JBYTEmark()[0].Source)
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]*ir.Program{
		"calls":     callHeavyProg(200),
		"steplimit": stepLimitProg(),
		"kernel":    cu.Prog,
	}
	var opts []Options
	for _, mode := range []Mode{Mode32, Mode64} {
		for _, mach := range []ir.Machine{ir.IA64, ir.PPC64} {
			for _, limit := range []int64{0, 5000} {
				opts = append(opts, Options{
					Mode: mode, Machine: mach, Cost: target.CostModel(mach),
					Profile: mode == Mode32, MaxSteps: limit,
				})
			}
		}
	}
	for name, prog := range progs {
		code := NewCode(prog)
		var wg sync.WaitGroup
		got := make([]*Result, len(opts))
		gotErr := make([]error, len(opts))
		for i, o := range opts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], gotErr[i] = code.Run("main", o)
			}()
		}
		wg.Wait()
		for i, o := range opts {
			want, wantErr := Run(prog, "main", o)
			assertIdentical(t, fmt.Sprintf("%s/opts%d", name, i), want, got[i], wantErr, gotErr[i])
		}
	}
}
