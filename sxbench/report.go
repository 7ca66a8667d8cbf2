package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// maxProblems bounds how many failure messages a run prints; the rest are
// counted.
const maxProblems = 8

// report is what one run measured.
type report struct {
	attempted, failed int
	problems          []string             // why the run is not correct
	dropped           int                  // problems beyond maxProblems
	values            map[string]float64   // metric name -> value
	samples           map[string][]float64 // the distribution a metric was taken from
	record            []string             // "key=value" run-record lines

	spans        *tracer // traced runs only
	unattributed float64 // traced runs: % of op wall time outside every layer span
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string][]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setSamples sets a metric and keeps the samples it came from, whose
// quartiles the run record prints.
func (r *report) setSamples(name string, v float64, xs []float64) {
	r.values[name] = v
	r.samples[name] = xs
}

func (r *report) failf(format string, a ...any) {
	if len(r.problems) == maxProblems {
		r.dropped++
		return
	}
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

func (r *report) note(format string, a ...any) {
	r.record = append(r.record, fmt.Sprintf(format, a...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the run record — machine, toolchain, source, workload
// parameters, op counts, each metric with its quartiles — and, as the last
// line, the JSON result.
func (r *report) write(w io.Writer, workload string, p params) error {
	specs := endToEnd
	if p.traced {
		specs = perLayer
	}
	fmt.Fprintf(w, "run workload=%s seed=%d seconds=%g trace=%t setups=%d\n",
		workload, p.seed, p.seconds.Seconds(), p.traced, p.setups)
	fmt.Fprintf(w, "run num_cpu=%d gomaxprocs=%d go=%s commit=%s source_sha256=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), sourceDigest())
	for _, s := range r.record {
		fmt.Fprintf(w, "run %s\n", s)
	}
	fmt.Fprintf(w, "run attempted=%d failed=%d\n", r.attempted, r.failed)
	res := jsonResult{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, s := range specs {
		v, ok := r.values[s.name]
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.failf("metric %s is %v", s.name, v)
			v = 0
		case !p.traced && (!ok || v <= 0):
			r.failf("end-to-end metric %s was not measured", s.name)
		}
		line := fmt.Sprintf("metric %-22s %-15s %.6g", s.name, s.unit, v)
		if xs := r.samples[s.name]; len(xs) > 0 {
			q1, q2, q3 := quartiles(xs)
			line += fmt.Sprintf("  n=%d q1=%.6g median=%.6g q3=%.6g", len(xs), q1, q2, q3)
		}
		fmt.Fprintln(w, line)
		res.Metrics[s.name] = jsonMetric{Value: v, Unit: s.unit}
	}
	for _, pr := range r.problems {
		fmt.Fprintf(w, "FAIL %s\n", pr)
	}
	if r.dropped > 0 {
		fmt.Fprintf(w, "FAIL ... and %d more\n", r.dropped)
	}
	res.Correct = len(r.problems) == 0 && r.failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1): always
// a measured value, never an interpolation.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func quartiles(xs []float64) (q1, q2, q3 float64) {
	return percentile(xs, 0.25), percentile(xs, 0.5), percentile(xs, 0.75)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usage is the process's resource use so far.
type usage struct {
	cpu    time.Duration // user + system
	maxRSS int64         // bytes
}

func getUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss * 1024, // Linux reports kilobytes
	}
}

// commit is the checked-out revision when the working directory is the root
// of a git repository, and "unknown" otherwise; source_sha256 identifies the
// sources either way.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest identifies the measured sources when no commit is known: a
// SHA-256 over go.mod and every file under internal/ and sxbench/, relative
// to the working directory (the repository root when run by run.sh).
func sourceDigest() string {
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "sxbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(data))
			h.Write(data)
			return nil
		})
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
