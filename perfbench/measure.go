package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"scout/internal/localize"
	"scout/internal/object"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run accumulates what one workload run measured. A workload fills the
// per-operation samples; endToEnd turns them into the end-to-end
// metrics.
type run struct {
	name  string
	tailP float64 // percentile of the tail metrics

	setupSeconds []float64 // one per repeated set-up
	latMS        []float64 // program call time per operation
	freshMS      []float64 // input change to the report covering it
	busy         time.Duration
	attempted    int
	failed       int
	failures     []string

	// accuracy holds precision and recall per input state; each state's
	// first report counts, so the means are fixed by the seed.
	accuracy map[int][2]float64

	heapLiveMB float64
	rssPeakMB  float64

	// Traced run only.
	tracedLatMS   []float64 // program call time on traced operations
	untracedLatMS []float64 // program call time on untraced operations
	replayMisses  int
}

func newRun(name string) *run {
	return &run{name: name, accuracy: make(map[int][2]float64)}
}

// fail records a failed operation with its reason.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// score records, once per input state id, the accuracy of the report
// produced for that state.
func (r *run) score(state int, res *localize.Result, truth []object.Ref) {
	if _, ok := r.accuracy[state]; ok {
		return
	}
	var acc localize.Accuracy
	if res != nil {
		acc = res.Evaluate(truth)
	}
	r.accuracy[state] = [2]float64{acc.Precision, acc.Recall}
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailDesc describes a tail statistic: its percentile, sample count,
// and how many samples lie beyond it.
func tailDesc(p float64, n int) string {
	return fmt.Sprintf("p%g of n=%d (%d beyond)", p, n, int(float64(n)*(1-p/100)))
}

// endToEnd computes every end-to-end metric from the samples. It also
// returns a description of the tail percentile used.
func (r *run) endToEnd() (map[string]metric, string) {
	var precision, recall float64
	for _, a := range r.accuracy {
		precision += a[0]
		recall += a[1]
	}
	if n := float64(len(r.accuracy)); n > 0 {
		precision /= n
		recall /= n
	}
	okRatio := 0.0
	if r.attempted > 0 {
		okRatio = 1 - float64(r.failed)/float64(r.attempted)
	}
	perSec := 0.0
	if r.busy > 0 {
		perSec = float64(len(r.latMS)) / r.busy.Seconds()
	}
	m := map[string]metric{
		"report_ms_p50":    {median(r.latMS), "ms"},
		"report_ms_tail":   {quantile(r.latMS, r.tailP/100), "ms"},
		"freshness_ms_p50": {median(r.freshMS), "ms"},
		"reports_per_s":    {perSec, "1/s"},
		"setup_s":          {median(r.setupSeconds), "s"},
		"precision":        {precision, "ratio"},
		"recall":           {recall, "ratio"},
		"heap_live_mb":     {r.heapLiveMB, "MB"},
		"rss_peak_mb":      {r.rssPeakMB, "MB"},
		"ok_ratio":         {okRatio, "ratio"},
	}
	desc := "report tail " + tailDesc(r.tailP, len(r.latMS))
	return m, desc
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS counter so the next
// reading covers only what follows. Where the kernel does not allow it,
// the peak covers the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
