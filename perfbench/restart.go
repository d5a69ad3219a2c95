package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"scout"
	"scout/internal/fabric"
	"scout/internal/object"
	"scout/internal/store"
)

// restartState is a faulty fabric and a state directory populated by a
// session that analyzed it.
type restartState struct {
	f     *fabric.Fabric
	truth []object.Ref
	dir   string
	warm  *scout.Report // the populating session's warm report
}

// restartOnce opens the store, starts a session on it, takes the first
// report and closes both: one restart.
func restartOnce(h *harness, f *fabric.Fabric, dir string) (*scout.Report, scout.SessionStats, error) {
	ws, err := store.Open(dir)
	if err != nil {
		return nil, scout.SessionStats{}, err
	}
	opts := h.analyzerOptions()
	opts.WarmStore = ws
	sess, err := scout.NewSession(f, opts)
	if err != nil {
		ws.Close()
		return nil, scout.SessionStats{}, err
	}
	rep, err := sess.Analyze()
	st := sess.Stats()
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	if cerr := ws.Close(); err == nil {
		err = cerr
	}
	return rep, st, err
}

// newRestartState builds the faulty fabric, populates its state
// directory with a session's base and verdicts, keeps that session's
// warm report, and restarts once.
func newRestartState(h *harness, dir string) (*restartState, error) {
	pol, tp, err := h.genAndCompile()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(h.cfg.seed))
	f, truth, err := faultyFabric(pol, tp, rng)
	if err != nil {
		return nil, err
	}
	ws, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	opts := h.analyzerOptions()
	opts.WarmStore = ws
	sess, err := scout.NewSession(f, opts)
	if err != nil {
		ws.Close()
		return nil, err
	}
	_, err = sess.Analyze()
	var warm *scout.Report
	if err == nil {
		warm, err = sess.Analyze()
	}
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	if cerr := ws.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if _, _, err := restartOnce(h, f, dir); err != nil {
		return nil, err
	}
	return &restartState{f: f, truth: truth, dir: dir, warm: warm}, nil
}

// runRestart is the restart workload: a closed loop, one client, each
// operation a warm restart on the state directory set-up populated.
func runRestart(h *harness) error {
	setupN := 0
	rs, _, err := setup(h, func() (*restartState, func(), error) {
		setupN++
		dir, err := h.scratchDir(fmt.Sprintf("state-%d", setupN))
		if err != nil {
			return nil, nil, err
		}
		rs, err := newRestartState(h, dir)
		return rs, func() {}, err
	})
	if err != nil {
		return err
	}

	h.startTimed()
	for h.more() {
		// A restart begins with a fresh process's empty heap: collect the
		// previous restart's garbage before timing the next.
		runtime.GC()
		start := time.Now()
		traced := h.beginOp()
		var rep *scout.Report
		var st scout.SessionStats
		err := h.program("scout.NewSession+Analyze", traced, func() error {
			var err error
			rep, st, err = restartOnce(h, rs.f, rs.dir)
			return err
		})
		h.r.freshMS = append(h.r.freshMS, float64(time.Since(start))/float64(time.Millisecond))
		if err != nil {
			h.r.fail("restart %d: %v", h.ops, err)
			h.endOp(traced)
			continue
		}
		same, err := sameReport(rep, rs.warm)
		switch {
		case err != nil:
			h.r.fail("restart %d: %v", h.ops, err)
		case st.BaseLoads != 1 || st.BaseRebuilds != 0:
			h.r.fail("restart %d: %d base loads, %d rebuilds", h.ops, st.BaseLoads, st.BaseRebuilds)
		case !same:
			h.r.fail("restart %d: report differs from the warm report before restart", h.ops)
		}
		h.r.score(0, rep.Controller, rs.truth)
		if traced {
			h.sessionCounters(scout.SessionStats{}, st, rep, nil)
			h.add("collect.switches_read", float64(len(rep.Switches)))
			h.add("collect.rules_copied", tcamRules(rs.f, nil))
			err := h.replay(func() error {
				out, err := h.rp.restart(rs.f, rs.dir)
				if err == nil {
					h.checkReplay(out, rep)
				}
				return err
			})
			if err != nil {
				h.r.fail("restart %d: replay: %v", h.ops, err)
			}
		}
		h.endOp(traced)
	}
	h.finish()
	runtime.KeepAlive(rs) // the live heap counts what the workload keeps
	h.gauges["store.bytes"] = dirBytes(rs.dir)
	return nil
}
