package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkFileMatchesDefinitions keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestBenchmarkFileMatchesDefinitions(t *testing.T) {
	b := readBenchmarkFile(t)
	known := make(map[string]bool)
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range b.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEndDefs))
	}
	for i, m := range b.EndToEnd {
		if d := endToEndDefs[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayerDefs))
	}
	for i, m := range b.PerLayer {
		if m != perLayerDefs[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, perLayerDefs[i])
		}
	}
}

// summaryLine returns a workload's "<name>: N operations, ..." line.
func summaryLine(out, name string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, name+": ") && strings.Contains(l, " operations, ") {
			return l
		}
	}
	return ""
}

// printed parses the "metric <workload> <name> = <value> <unit>" lines.
func printed(t *testing.T, out string) map[string]map[string]string {
	t.Helper()
	got := make(map[string]map[string]string)
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 6 || f[0] != "metric" || f[3] != "=" {
			continue
		}
		if got[f[1]] == nil {
			got[f[1]] = make(map[string]string)
		}
		got[f[1]][f[2]] = f[5]
	}
	return got
}

// TestQuickRun runs every workload for a few operations with a fixed
// seed, untraced and traced, and checks the output: every metric in
// BENCHMARK.json printed with its unit, no failed operation, and a
// well-formed trace.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	for _, trace := range []int{0, 1} {
		t.Run(fmt.Sprintf("trace=%d", trace), func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", "all", "--seed", "7", "--seconds", "60", "--ops", "4",
				"--setups", "1", "--trace", fmt.Sprint(trace), "--out", dir}
			if code := mainErr(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			out := stdout.String()
			if strings.Contains(out, "FAILED") {
				t.Errorf("failed operations:\n%s", out)
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the JSON summary: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("summary: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			got := printed(t, out)
			for _, w := range workloads {
				if line := summaryLine(out, w.name); !strings.Contains(line, "(failed_ratio 0.0000)") {
					t.Errorf("%s: summary line %q, want failed_ratio 0", w.name, line)
				}
				want := map[string]string{}
				if trace == 1 {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					if u, ok := got[w.name][name]; !ok || u != unit {
						t.Errorf("%s: metric %s printed with unit %q, want %q", w.name, name, u, unit)
					}
					if _, ok := res.Metrics[w.name+"/"+name]; !ok {
						t.Errorf("%s: metric %s missing from the JSON summary", w.name, name)
					}
				}
				if trace == 1 {
					checkTraceFile(t, filepath.Join(dir, "trace", w.name+"-seed7.json"))
				}
			}
		})
	}
}

// checkTraceFile checks that every span's parent exists in the trace and
// that each traced operation holds a program call and a replay.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if err := checkTrace(tr.Spans); err != nil {
		t.Errorf("%s: %v", path, err)
	}
	kinds := make(map[int]map[string]bool)
	for _, s := range tr.Spans {
		if kinds[s.Op] == nil {
			kinds[s.Op] = make(map[string]bool)
		}
		kinds[s.Op][layerOf(s.Name)] = true
	}
	ops := 0
	for _, k := range kinds {
		if !k["perfbench"] || k["compile"] {
			continue
		}
		if k["scout"] {
			ops++
			if len(k) < 4 {
				t.Errorf("%s: a traced operation has spans of only %v", path, k)
			}
		}
	}
	if ops == 0 {
		t.Errorf("%s: no traced operation", path)
	}
}

func TestCheckTraceRejectsOrphans(t *testing.T) {
	spans := []span{{ID: 1, Op: 1, End: 2}, {ID: 2, Parent: 3, Op: 1, Start: 1, End: 2}}
	if checkTrace(spans) == nil {
		t.Fatal("a span with a missing parent passed")
	}
	tr := newTracer(true)
	op := tr.beginOp("op")
	tr.do("a.call", "a.ms", func() { tr.do("b.call", "b.ms", func() {}) })
	tr.end(op)
	if err := checkTrace(tr.spans); err != nil {
		t.Fatal(err)
	}
	if tr.spans[2].Parent != tr.spans[1].ID || tr.spans[1].Parent != op {
		t.Fatalf("parents not nested: %+v", tr.spans)
	}
}

// layerOf is the layer (module) a span name belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}
