package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"scout"
	"scout/internal/compile"
	"scout/internal/policy"
	"scout/internal/topo"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	workers int
	maxOps  int    // stop after this many timed operations (0: time only)
	setups  int    // set-up repetitions; setup_s is their median
	dir     string // scratch directory for state files
}

// harness drives one workload run: it times program calls, alternates
// traced and untraced operations in the traced run, and folds program
// counters and replay spans into per-layer metrics.
type harness struct {
	cfg config
	r   *run
	tr  *tracer
	rp  *replayer

	ops       int
	deadline  time.Time
	opSpan    int
	progMS    map[int]float64 // traced op id -> program call time
	setupOps  map[int]bool
	counts    map[string]float64    // per traced op, summed
	parts     map[string][2]float64 // ratio numerators and denominators
	gauges    map[string]float64
	replayOps int
}

func newHarness(cfg config, name string) *harness {
	tr := newTracer(cfg.trace)
	counts := make(map[string]float64)
	return &harness{cfg: cfg, r: newRun(name), tr: tr, rp: newReplayer(tr, counts),
		progMS: make(map[int]float64), setupOps: make(map[int]bool), counts: counts,
		parts: make(map[string][2]float64), gauges: make(map[string]float64)}
}

// analyzerOptions pins the program's worker count.
func (h *harness) analyzerOptions() scout.AnalyzerOptions {
	return scout.AnalyzerOptions{Workers: h.cfg.workers}
}

// setup runs fn cfg.setups times, timing each, and keeps the last
// result; earlier ones are released with their cleanup.
func setup[T any](h *harness, fn func() (T, func(), error)) (T, func(), error) {
	var last T
	var cleanup func()
	for i := 0; i < h.cfg.setups; i++ {
		if cleanup != nil {
			cleanup()
		}
		start := time.Now()
		v, c, err := fn()
		if err != nil {
			return last, nil, err
		}
		h.r.setupSeconds = append(h.r.setupSeconds, time.Since(start).Seconds())
		last, cleanup = v, c
	}
	return last, cleanup, nil
}

// genAndCompile generates the policy; in the traced run it also times a
// compile of it, the compile layer's share of set-up.
func (h *harness) genAndCompile() (*policy.Policy, *topo.Topology, error) {
	pol, tp, err := genPolicy()
	if err != nil || !h.cfg.trace {
		return pol, tp, err
	}
	id := h.tr.beginOp("perfbench.setup")
	h.setupOps[h.tr.op] = true
	h.tr.do("compile.Compile", "compile.ms", func() { _, err = compile.Compile(pol, tp) })
	h.tr.end(id)
	return pol, tp, err
}

// startTimed opens the measurement window. Set-up's garbage is
// collected and returned to the system and the peak-RSS counter reset,
// so rss_peak_mb is the timed phase's own peak.
func (h *harness) startTimed() {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	h.deadline = time.Now().Add(time.Duration(h.cfg.seconds * float64(time.Second)))
}

// more reports whether another operation fits the run.
func (h *harness) more() bool {
	if h.cfg.maxOps > 0 && h.ops >= h.cfg.maxOps {
		return false
	}
	return time.Now().Before(h.deadline)
}

// beginOp starts an operation and reports whether it is traced. In the
// traced run operations alternate in pairs between traced and untraced,
// so the untraced ones measure what tracing costs the program call.
// Pairs rather than single operations keep the replay's caches in step
// with the session's on the toggling workloads: an untraced pair
// returns its switches to the state the replay last saw.
func (h *harness) beginOp() bool {
	traced := h.cfg.trace && (h.ops/2)%2 == 0
	h.ops++
	h.r.attempted++
	if traced {
		h.opSpan = h.tr.beginOp("perfbench.op")
		h.replayOps++
	}
	return traced
}

// endOp closes a traced operation.
func (h *harness) endOp(traced bool) {
	if traced {
		h.tr.end(h.opSpan)
	}
}

// program times one program call. On a traced operation it also records
// the call as a span and the Go runtime's CPU, allocation and GC deltas.
func (h *harness) program(name string, traced bool, fn func() error) error {
	var ms0 runtime.MemStats
	var cpu0 time.Duration
	id := 0
	if traced {
		runtime.ReadMemStats(&ms0)
		cpu0 = processCPU()
		id = h.tr.begin(name, "")
	}
	start := time.Now()
	err := fn()
	d := time.Since(start)
	ms := float64(d) / float64(time.Millisecond)
	h.r.latMS = append(h.r.latMS, ms)
	h.r.busy += d
	if traced {
		h.tr.end(id)
		cpu := processCPU() - cpu0
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		h.add("go.cpu_ms", float64(cpu)/float64(time.Millisecond))
		h.add("go.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		h.add("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
		h.progMS[h.tr.op] = ms
		h.r.tracedLatMS = append(h.r.tracedLatMS, ms)
	} else if h.cfg.trace {
		h.r.untracedLatMS = append(h.r.untracedLatMS, ms)
	}
	return err
}

// replay runs fn inside the replay frame of a traced operation.
func (h *harness) replay(fn func() error) error {
	id := h.tr.begin("perfbench.replay", "")
	defer h.tr.end(id)
	return fn()
}

// checkReplay compares a replay with the program's report.
func (h *harness) checkReplay(out replayOutcome, rep *scout.Report) {
	if !sameRefs(out.hypothesis, rep.Hypothesis) {
		h.r.replayMisses++
		h.r.fail("op %d: replay hypothesis %v != report %v", h.ops, out.hypothesis, rep.Hypothesis)
		return
	}
	if out.baseNodes >= 0 {
		got := -1
		if rep.EncodeStats != nil {
			got = rep.EncodeStats.BaseNodes
		}
		if got != out.baseNodes {
			h.r.replayMisses++
			h.r.fail("op %d: replay base %d nodes != report %d", h.ops, out.baseNodes, got)
		}
	}
}

// add accumulates a per-operation counter.
func (h *harness) add(name string, v float64) { h.counts[name] += v }

// addRatio accumulates a ratio's numerator and denominator.
func (h *harness) addRatio(name string, num, den float64) {
	p := h.parts[name]
	h.parts[name] = [2]float64{p[0] + num, p[1] + den}
}

// finish records the end-of-run memory metrics.
func (h *harness) finish() {
	h.r.heapLiveMB = liveHeapMB()
	h.r.rssPeakMB = peakRSSMB()
}

// perLayer folds the trace, the counters and the gauges into the
// per-layer metrics. Times and counters are per traced operation;
// gauges are the last value seen.
func (h *harness) perLayer() map[string]metric {
	out := make(map[string]metric)
	for _, def := range perLayerDefs {
		out[def.Name] = metric{0, def.Unit}
	}
	n := float64(h.replayOps)
	perOp := func(v float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	times := h.tr.opMetricTimes()
	sums := make(map[string]float64)
	var setupCompile []float64
	var unattributed float64
	for op, ms := range times {
		if h.setupOps[op] {
			if d, ok := ms["compile.ms"]; ok {
				setupCompile = append(setupCompile, float64(d)/float64(time.Millisecond))
			}
			continue
		}
		layerSum := 0.0
		for name, d := range ms {
			v := float64(d) / float64(time.Millisecond)
			sums[name] += v
			if name != "store.flush_ms" {
				layerSum += v
			}
		}
		unattributed += h.progMS[op] - layerSum
	}
	for op, ms := range h.progMS {
		if _, ok := times[op]; !ok {
			unattributed += ms
		}
	}
	for name, v := range sums {
		out[name] = metric{perOp(v), out[name].Unit}
	}
	if len(setupCompile) > 0 {
		out["compile.ms"] = metric{median(setupCompile), "ms"}
	}
	out["scout.unattributed_ms"] = metric{perOp(unattributed), "ms"}
	for name, v := range h.counts {
		if m, ok := out[name]; ok {
			out[name] = metric{perOp(v), m.Unit}
		}
	}
	for name, p := range h.parts {
		if m, ok := out[name]; ok {
			out[name] = metric{ratio(p[0], p[1]), m.Unit}
		}
	}
	for name, v := range h.gauges {
		if m, ok := out[name]; ok {
			out[name] = metric{v, m.Unit}
		}
	}
	if len(h.r.tracedLatMS) > 0 && len(h.r.untracedLatMS) > 0 {
		out["trace.overhead_ms"] = metric{median(h.r.tracedLatMS) - median(h.r.untracedLatMS), "ms"}
	}
	for name, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out[name] = metric{0, m.Unit}
		}
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total)
}
