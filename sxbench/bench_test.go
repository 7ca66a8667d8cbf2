package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
	"time"

	kernels "signext/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_suite_refs.json")

// TestPaperSuiteReferences re-derives the committed reference outputs of the
// paper-suite kernels with the Mode32 tree-walker.
func TestPaperSuiteReferences(t *testing.T) {
	refs := map[string]string{}
	for _, w := range kernels.All() {
		out, err := reference(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		refs[w.Name] = out
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile("testdata/paper_suite_refs.json", data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(data, paperRefs) {
		t.Fatal("testdata/paper_suite_refs.json is stale; rerun with -update")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and the
// metric tables of this program, in order, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit string
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, tc := range []struct {
		kind  string
		json  []metric
		table []spec
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.table) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", tc.kind, len(tc.json), len(tc.table))
			continue
		}
		for i, m := range tc.json {
			if m.Name != tc.table[i].name || m.Unit != tc.table[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					tc.kind, i, m.Name, m.Unit, tc.table[i].name, tc.table[i].unit)
			}
		}
	}
}

// maxUnattributedPct is the stated tracing overhead: the share of a traced
// op's wall time that may fall outside every layer span.
const maxUnattributedPct = 5

// TestSelfTest runs every workload at a tiny size, untraced and traced, and
// checks the printed result: every metric once with its unit, nothing
// failed, distinct end-to-end values, and trace self times that cover the
// op wall time.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			p := params{seed: 7, seconds: time.Second, traced: traced, setups: 1, small: true, out: t.TempDir()}
			rep, err := w.run(p)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			var buf bytes.Buffer
			if err := rep.write(&buf, w.name, p); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, traced, res.Correct, res.Attempted, res.Failed, buf.String())
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(specs))
			}
			seen := map[float64]string{}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s: got %+v, want unit %s", w.name, traced, s.name, m, s.unit)
					continue
				}
				if traced {
					continue
				}
				if other, dup := seen[m.Value]; dup {
					t.Errorf("%s: %s and %s both read %v", w.name, s.name, other, m.Value)
				}
				seen[m.Value] = s.name
			}
			if traced {
				if e := res.Metrics["op.error_frac"].Value; e != 0 {
					t.Errorf("%s: op.error_frac = %v", w.name, e)
				}
				if rep.unattributed > maxUnattributedPct {
					t.Errorf("%s: %.2f%% of traced op time is outside every layer span (limit %d%%)",
						w.name, rep.unattributed, maxUnattributedPct)
				}
			}
		}
	}
}
