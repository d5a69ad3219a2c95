package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call in the trace: a call into a layer's public
// function, the program call a report comes from, or a benchmark frame
// that groups them. Spans of one operation share Op; Parent is the id of
// the enclosing span (0 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Metric string `json:"metric,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for one workload run. It is used from a
// single goroutine: the open-span stack gives each new span its parent.
// A disabled tracer records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// beginOp opens the root span of a new operation and returns its id.
func (t *tracer) beginOp(name string) int {
	if !t.on {
		return 0
	}
	t.op++
	return t.begin(name, "")
}

// begin opens a span under the innermost open span. metric names the
// per-layer time metric the span's self time counts towards ("" for
// frames that only group other spans).
func (t *tracer) begin(name, metric string) int {
	if !t.on {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Metric: metric,
		Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if !t.on {
		return
	}
	n := len(t.stack)
	if n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.stack = t.stack[:n-1]
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// do runs fn inside a span.
func (t *tracer) do(name, metric string, fn func()) {
	id := t.begin(name, metric)
	fn()
	t.end(id)
}

// selfTimes returns each span's duration minus the time its children
// cover. Children of one span run one after another, so their
// durations add up.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent > 0 {
			self[s.Parent-1] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// opMetricTimes sums span self times per (operation, metric).
func (t *tracer) opMetricTimes() map[int]map[string]time.Duration {
	self := t.selfTimes()
	out := make(map[int]map[string]time.Duration)
	for i, s := range t.spans {
		if s.Metric == "" {
			continue
		}
		m := out[s.Op]
		if m == nil {
			m = make(map[string]time.Duration)
			out[s.Op] = m
		}
		m[s.Metric] += self[i]
	}
	return out
}

// write stores the trace as JSON at path.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// checkTrace verifies a trace's structure: every span closed, every
// parent present, and parents belong to the same operation.
func checkTrace(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has missing parent %d", s.ID, s.Name, s.Parent)
		}
		if p.Op != s.Op {
			return fmt.Errorf("span %d (%s) is in op %d but its parent is in op %d", s.ID, s.Name, s.Op, p.Op)
		}
	}
	return nil
}
