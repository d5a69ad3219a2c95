// Command perfbench is scout's benchmark. It runs one workload (or all
// of them, in turn, in one process) against the program built from this
// source tree, checks every report, and prints each metric by name with
// its unit; the last line of standard output is a JSON summary.
//
//	bash perfbench/run.sh --workload cold-diagnose --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it prints the per-layer metrics instead and writes the
// span trace under .bench_build/trace/. See perfbench/README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"scout/internal/compile"
)

// workloadDef is one workload: why it is in the benchmark, and its run.
type workloadDef struct {
	name string
	why  string
	// tail is the percentile report_ms_tail reads. It is fixed per
	// workload, so a run that completes more operations still reports
	// the same statistic, and leaves at least ten samples beyond it at
	// the workload's operation count in a 20-second run.
	tail float64
	run  func(h *harness) error
}

// workloads are the benchmark's workloads. BENCHMARK.json gates the
// first three; restart runs with the others and is printed the same way,
// but its memory-bound store decode drifts with the load of the shared
// machines the benchmark runs on by more than any bound a gate may set
// (see README.md).
var workloads = []workloadDef{
	{"cold-diagnose", "one-shot Analyze on a fresh faulty fabric: shared-base build, check, localization accuracy", 50, runCold},
	{"watch-churn", "open-loop event stream through ApplyEvents with a warm store: partial collect, dirty checks, persistence", 90, runWatch},
	{"probe-rounds", "probe-mode session rounds after evictions: probe synthesis, batched TCAM classification, verdict replay", 95, runProbe},
	{"restart", "warm restart from a populated store: base decode, verdict replay, first report", 75, runRestart},
}

// pinnedWorkers is the program's worker count and the benchmark's
// GOMAXPROCS, capped at the CPUs present: two CPUs is the smallest
// machine the benchmark targets, and one value keeps runs comparable.
const pinnedWorkers = 2

// result is the JSON summary line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "all", "workload to run, or all")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 20, "measured seconds per workload")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer run")
	maxOps := fl.Int("ops", 0, "stop each workload after this many operations (0: no limit)")
	setups := fl.Int("setups", 5, "set-up repetitions per workload")
	out := fl.String("out", ".bench_build", "directory for state files and traces")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *setups < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: invalid flags")
		return 2
	}
	workers := min(pinnedWorkers, runtime.NumCPU())
	runtime.GOMAXPROCS(workers)
	var selected []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	root, err := filepath.Abs(*out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(root, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	pol, tp, err := genPolicy()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "env: go=%s GOMAXPROCS=%d NumCPU=%d workers=%d cpu=%q commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), workers, cpuModel(), commitOf("."))
	d, err := compile.Compile(pol, tp)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "input: seed=%d policy=SmallFabricSpec generator-seed=%d switches=%d rules=%d\n",
		*seed, policySeed, tp.NumSwitches(), d.TotalRules())

	total := result{Correct: true, Metrics: make(map[string]metric)}
	var last result
	for _, w := range selected {
		cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: workers,
			maxOps: *maxOps, setups: *setups, dir: filepath.Join(scratch, w.name)}
		h := newHarness(cfg, w.name)
		h.r.tailP = w.tail
		fmt.Fprintf(stdout, "workload %s: %s\n", w.name, w.why)
		if err := w.run(h); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if cfg.trace {
			path := filepath.Join(root, "trace", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
			if err := h.tr.write(path, w.name, *seed); err != nil {
				fmt.Fprintln(stderr, "perfbench: write trace:", err)
				return 1
			}
			fmt.Fprintf(stdout, "trace: %d spans in %s\n", len(h.tr.spans), path)
		}
		last = report(stdout, h)
		total.Correct = total.Correct && last.Correct
		total.Attempted += last.Attempted
		total.Failed += last.Failed
		for k, v := range last.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
		runtime.GC()
	}
	if len(selected) > 1 {
		last = total
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report prints a workload's metrics and returns its summary.
func report(w io.Writer, h *harness) result {
	r := h.r
	e2e, tail := r.endToEnd()
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if res.Attempted == 0 {
		res.Correct = false
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED %s: %s\n", r.name, f)
	}
	fmt.Fprintf(w, "%s: %d operations, %d failed (failed_ratio %.4f); %s; setups %v s\n",
		r.name, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)), tail, r.setupSeconds)
	for _, d := range []struct {
		name string
		xs   []float64
	}{{"report_ms", r.latMS}, {"freshness_ms", r.freshMS}} {
		fmt.Fprintf(w, "%s: %s p50 %.3f p75 %.3f p90 %.3f p95 %.3f p99 %.3f max %.3f (n=%d)\n", r.name, d.name,
			quantile(d.xs, .5), quantile(d.xs, .75), quantile(d.xs, .9), quantile(d.xs, .95), quantile(d.xs, .99), quantile(d.xs, 1), len(d.xs))
	}
	if h.cfg.trace {
		res.Metrics = h.perLayer()
		fmt.Fprintf(w, "%s: traced report_ms_p50 %.3f ms, untraced %.3f ms, %d replay mismatches\n",
			r.name, median(r.tracedLatMS), median(r.untracedLatMS), r.replayMisses)
	} else {
		res.Metrics = e2e
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "metric %s %s = %.6g %s\n", r.name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res
}

// cpuModel reads the CPU model name.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf names the source under test: the git commit when root is a
// git checkout, and in any case a digest of the Go sources outside the
// benchmark, so runs of an exported tree are identified too.
func commitOf(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			data, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	digest := fmt.Sprintf("src-%x", h.Sum(nil)[:6])
	if head := gitHead(root); head != "" {
		return head + " " + digest
	}
	return digest
}

// gitHead reads the checked-out commit without running git.
func gitHead(root string) string {
	data, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(data))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if data, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	if data, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return ""
}
