package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the enclosing span's ID, -1 for the op's root.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a run in memory; main writes them out when the
// run ends. Safe for concurrent use: the daemon workload records from its
// load-generator goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.t0)) }

// begin opens a span and returns its ID.
func (t *tracer) begin(op, parent int, name string) int {
	start := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans), Parent: parent, Name: name, Start: start})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	end := t.at(time.Now())
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// call runs f inside a span.
func (t *tracer) call(op, parent int, name string, f func()) {
	id := t.begin(op, parent, name)
	f()
	t.end(id)
}

// record adds a span whose start and end were taken elsewhere and returns
// its ID.
func (t *tracer) record(op, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans), Parent: parent, Name: name, Start: t.at(start), End: t.at(end)})
	return len(t.spans) - 1
}

// add records a span measured elsewhere: a duration a layer reports about
// itself, or one taken from a daemon response. It starts where its parent
// starts; only its length enters self times.
func (t *tracer) add(parent int, name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{
		Op: p.Op, ID: len(t.spans), Parent: parent, Name: name,
		Start: p.Start, End: p.Start + int64(d),
	})
}

// opTimes is one op's wall time and each span name's self time within it.
type opTimes struct {
	wall time.Duration
	self map[string]time.Duration
}

// times returns, per op, every span name's self time: the span's duration
// minus its children's. The children of one span never overlap — each op's
// layers run one after another on one goroutine — so what they cover is the
// sum of their durations.
func (t *tracer) times() map[int]*opTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[int]*opTimes{}
	for i, s := range t.spans {
		ot := out[s.Op]
		if ot == nil {
			ot = &opTimes{self: map[string]time.Duration{}}
			out[s.Op] = ot
		}
		if s.Parent < 0 {
			ot.wall += time.Duration(s.End - s.Start)
		}
		ot.self[s.Name] += time.Duration(s.End - s.Start - covered[i])
	}
	return out
}

// totals sums self times over ops.
func totals(ops map[int]*opTimes) map[string]time.Duration {
	sum := map[string]time.Duration{}
	for _, ot := range ops {
		for name, d := range ot.self {
			sum[name] += d
		}
	}
	return sum
}

// unattributedPct is the share of op wall time, in percent, that falls in
// the named glue spans (roots and containers) rather than in a layer.
func unattributedPct(ops map[int]*opTimes, glue ...string) float64 {
	var wall, g time.Duration
	for _, ot := range ops {
		wall += ot.wall
		for _, name := range glue {
			g += ot.self[name]
		}
	}
	return 100 * ratio(float64(g), float64(wall))
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err == nil {
			err = enc.Encode(&t.spans[i])
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	return nil
}
