package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"scout"
	"scout/internal/bdd"
	"scout/internal/collect"
	"scout/internal/equiv"
	"scout/internal/fabric"
	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/store"
	"scout/internal/stream"
)

const (
	// watchIncidents is the length of the incident script; the run
	// cycles through it, each incident followed by its repair.
	watchIncidents = 10
	// watchInterval is the fixed gap between scripted changes, sized so
	// the session is busy about half the time on a 2-CPU machine.
	watchInterval = 20 * time.Millisecond
)

// watchState is a watch-churn fabric with its session.
type watchState struct {
	f         *fabric.Fabric
	truth     []object.Ref
	standing  tcamState
	incidents []incident
	ws        *store.Store
	sess      *scout.Session
	cursor    *faultlog.Cursor
	queue     *stream.Queue
	expected  []([]object.Ref) // hypothesis per state: 0 standing, j+1 incident j
	last      *scout.Report
}

// apply moves the fabric from state from to state to (0: standing; j+1:
// incident j active), emitting one event per switch it rewrites. Every
// incident is followed by its repair, so one of the two is 0.
func (w *watchState) apply(from, to int) error {
	if to > 0 {
		return runTransitions(w.f, w.incidents[to-1].apply)
	}
	return runTransitions(w.f, w.incidents[from-1].revert)
}

// round cuts every pending switch into one batch and applies it; the
// report lands in w.last.
func (w *watchState) round() error {
	for _, ev := range w.cursor.Drain() {
		w.queue.Push(ev)
	}
	rep, err := w.sess.ApplyEvents(w.queue.Cut(w.f.Now()))
	if err == nil {
		w.last = rep
	}
	return err
}

// truthOf is the ground truth of state s.
func (w *watchState) truthOf(s int) []object.Ref {
	if s == 0 {
		return w.truth
	}
	return withTruth(w.truth, w.incidents[s-1].truth)
}

// newWatchState builds the fabric, the incident script and a session
// with a warm store, takes the baseline report and visits every
// incident state once.
func newWatchState(h *harness, dir string) (*watchState, error) {
	pol, tp, err := h.genAndCompile()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(h.cfg.seed))
	f, truth, err := faultyFabric(pol, tp, rng)
	if err != nil {
		return nil, err
	}
	w := &watchState{f: f, truth: truth, standing: snapshotTCAMs(f)}
	if w.incidents, err = makeIncidents(f, rng, watchIncidents, w.standing); err != nil {
		return nil, err
	}
	if w.ws, err = store.Open(dir); err != nil {
		return nil, err
	}
	opts := h.analyzerOptions()
	opts.WarmStore = w.ws
	if w.sess, err = scout.NewSession(f, opts); err != nil {
		w.ws.Close()
		return nil, err
	}
	// As cmd/scout -watch does: park the cursor before the baseline.
	w.cursor = f.EventLog().TailCursor()
	w.queue = stream.New(stream.Options{})
	base, err := w.sess.ApplyEvents(stream.Batch{})
	if err != nil {
		return nil, w.close(err)
	}
	w.expected = append(w.expected, base.Hypothesis)
	for j := range w.incidents {
		for _, s := range []int{j + 1, 0} {
			if err := w.apply(j+1-s, s); err != nil {
				return nil, w.close(err)
			}
			if err := w.round(); err != nil {
				return nil, w.close(err)
			}
			if hyp := w.last.Hypothesis; s > 0 {
				w.expected = append(w.expected, hyp)
			} else if !sameRefs(hyp, w.expected[0]) {
				return nil, w.close(fmt.Errorf("repair of incident %d left hypothesis %v, want %v", j, hyp, w.expected[0]))
			}
		}
	}
	if err := w.ws.Flush(); err != nil {
		return nil, w.close(err)
	}
	return w, nil
}

// close releases the session and its store, returning err (or the
// store's error when err is nil).
func (w *watchState) close(err error) error {
	if cerr := w.sess.Close(); err == nil {
		err = cerr
	}
	if cerr := w.ws.Close(); err == nil {
		err = cerr
	}
	return err
}

// runWatch is the watch-churn workload: an open loop of scripted
// incidents and repairs arriving every watchInterval, fed through the
// event log into a coalescing queue the way cmd/scout -watch does. The
// loop and the session share one goroutine: before each cut every change
// already due is injected, and a batch is cut whenever the session is
// idle and events are pending. Freshness runs from a change's due time to
// the return of the first report by which batches have covered every
// switch it touched: a change is the open loop's request, and counting
// per switch would let the few multi-switch changes outweigh the rest.
func runWatch(h *harness) error {
	setupN := 0
	w, cleanup, err := setup(h, func() (*watchState, func(), error) {
		setupN++
		dir, err := h.scratchDir(fmt.Sprintf("store-%d", setupN))
		if err != nil {
			return nil, nil, err
		}
		w, err := newWatchState(h, dir)
		if err != nil {
			return nil, nil, err
		}
		return w, func() { _ = w.close(nil) }, nil // a set-up that is superseded has nothing left to report
	})
	if err != nil {
		return err
	}
	defer cleanup()

	// The replay mirrors the session's state: a collector over the same
	// fabric, a checker forked from an identically built base, and the
	// verdicts of every switch.
	var col *collect.Collector
	var checker *equiv.Checker
	baseNodes := -1
	switches := fabricSwitches(w.f)
	if h.cfg.trace {
		id := h.tr.beginOp("perfbench.setup")
		h.setupOps[h.tr.op] = true
		col = collect.New(w.f, 2)
		col.Snapshot()
		base := h.rp.buildBase(w.f.Deployment())
		baseNodes = base.Size()
		checker = base.NewChecker()
		h.rp.ctrlPristine = h.rp.controllerModel(w.f.Deployment())
		if _, err := h.rp.watchRound(col, checker, fabricInputs(w.f), switches, switches); err != nil {
			return err
		}
		// Visit every incident state once, as the session did. The
		// content is restored before the session runs again, so it has
		// no events to see.
		for _, inc := range w.incidents {
			for _, ts := range [][]transition{inc.apply, inc.revert} {
				for _, t := range ts {
					if err := t.run(w.f); err != nil {
						return err
					}
				}
				if _, err := h.rp.watchRound(col, checker, fabricInputs(w.f), switches, inc.switches); err != nil {
					return err
				}
			}
		}
		h.tr.end(id)
	}

	// pendingChange is a scripted change some of whose switches no
	// report has covered yet.
	type pendingChange struct {
		due  time.Time
		left int
	}
	var (
		pending     = make(map[object.ID][]*pendingChange)
		pushedAt    = make(map[object.ID]time.Time)
		replayDirty = make(map[object.ID]bool)
		lags, waits []float64
		batchSizes  []float64
		prevCache   *bdd.CacheStats
		state       int
		k           int
	)
	h.startTimed()
	start := time.Now()
	due := func(k int) time.Time { return start.Add(time.Duration(k) * watchInterval) }
	for h.more() {
		// Inject every scripted change already due.
		for now := time.Now(); !due(k).After(now); now = time.Now() {
			prev := state
			state = 0
			if k%2 == 0 {
				state = (k/2)%len(w.incidents) + 1
			}
			if err := w.apply(prev, state); err != nil {
				return err
			}
			lags = append(lags, float64(now.Sub(due(k)))/float64(time.Millisecond))
			pc := &pendingChange{due: due(k)}
			for _, ev := range w.cursor.Drain() {
				w.queue.Push(ev)
				pc.left++
				pending[ev.Switch] = append(pending[ev.Switch], pc)
				if _, ok := pushedAt[ev.Switch]; !ok {
					pushedAt[ev.Switch] = now
				}
			}
			k++
		}
		if w.queue.Len() == 0 {
			if wait := time.Until(due(k)); wait > 0 {
				time.Sleep(wait)
			}
			continue
		}

		cutAt := time.Now()
		batch := w.queue.Cut(w.f.Now())
		oldest := cutAt
		for _, sw := range batch.Switches {
			if t := pushedAt[sw]; t.Before(oldest) {
				oldest = t
			}
			delete(pushedAt, sw)
			replayDirty[sw] = true
		}
		waits = append(waits, float64(cutAt.Sub(oldest))/float64(time.Millisecond))
		batchSizes = append(batchSizes, float64(len(batch.Switches)))

		traced := h.beginOp()
		before := w.sess.Stats()
		var rep *scout.Report
		err := h.program("scout.Session.ApplyEvents", traced, func() error {
			var err error
			rep, err = w.sess.ApplyEvents(batch)
			return err
		})
		returned := time.Now()
		for _, sw := range batch.Switches {
			for _, pc := range pending[sw] {
				if pc.left--; pc.left == 0 {
					h.r.freshMS = append(h.r.freshMS, float64(returned.Sub(pc.due))/float64(time.Millisecond))
				}
			}
			delete(pending, sw)
		}
		if err != nil {
			h.r.fail("round %d: %v", h.ops, err)
			h.endOp(traced)
			continue
		}
		w.last = rep
		if rep.Consistent || !sameRefs(rep.Hypothesis, w.expected[state]) {
			h.r.fail("round %d: state %d hypothesis %v, want %v", h.ops, state, rep.Hypothesis, w.expected[state])
		}
		h.r.score(state, rep.Controller, w.truthOf(state))
		if traced {
			// The schedule stands still while the harness flushes and
			// replays, so the traced run offers the session the same load.
			paused := time.Now()
			after := w.sess.Stats()
			h.sessionCounters(before, after, rep, prevCache)
			h.add("collect.switches_read", float64(after.EventSwitchesRead-before.EventSwitchesRead))
			h.add("collect.rules_copied", tcamRules(w.f, batch.Switches))
			h.tr.do("store.Store.Flush", "store.flush_ms", func() { err = w.ws.Flush() })
			if err != nil {
				h.r.fail("round %d: store flush: %v", h.ops, err)
			}
			dirty := make([]object.ID, 0, len(replayDirty))
			for _, sw := range switches {
				if replayDirty[sw] {
					dirty = append(dirty, sw)
				}
			}
			clear(replayDirty)
			err := h.replay(func() error {
				res, err := h.rp.watchRound(col, checker, fabricInputs(w.f), switches, dirty)
				if err == nil {
					h.checkReplay(replayOutcome{hypothesis: resultHypothesis(res), baseNodes: baseNodes}, rep)
				}
				return err
			})
			if err != nil {
				h.r.fail("round %d: replay: %v", h.ops, err)
			}
			start = start.Add(time.Since(paused))
		}
		if es := rep.EncodeStats; es != nil {
			c := es.OpCache
			prevCache = &c
		}
		h.endOp(traced)
	}
	h.finish()
	runtime.KeepAlive(w) // the live heap counts what the workload keeps

	// Shutdown flush, then streamed must equal full.
	for w.queue.Len() > 0 || w.cursor.Pending() > 0 {
		if err := w.round(); err != nil {
			return err
		}
	}
	if err := w.ws.Flush(); err != nil {
		return err
	}
	full, err := scout.NewAnalyzer(h.analyzerOptions()).Analyze(w.f)
	if err != nil {
		return err
	}
	same, err := sameReport(w.last, full)
	if err != nil {
		return err
	}
	h.r.attempted++
	if !same {
		h.r.fail("final streamed report differs from a fresh Analyze")
	}

	qs := w.queue.Stats()
	h.gauges["stream.queue_wait_ms"] = mean(waits)
	h.gauges["stream.batch_switches"] = mean(batchSizes)
	h.gauges["stream.batch_max"] = float64(qs.MaxBatch)
	h.gauges["stream.coalesced_ratio"] = ratio(float64(qs.Coalesced), float64(qs.Pushed))
	h.gauges["stream.generator_lag_ms"] = mean(lags)
	h.gauges["store.bytes"] = dirBytes(w.ws.Dir())
	return nil
}

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
