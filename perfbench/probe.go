package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"scout"
	"scout/internal/fabric"
	"scout/internal/object"
	"scout/internal/probe"
)

// probeSets is the number of eviction states probe-rounds toggles
// through (odd, so the traced run's traced and untraced operation pairs
// both cover every state); probeSetSwitches is how many switches each
// one dirties.
const (
	probeSets        = 9
	probeSetSwitches = 2
)

// probeState is a probe-rounds fabric with its session and toggle states.
type probeState struct {
	f        *fabric.Fabric
	truth    []object.Ref
	standing tcamState
	sets     []change
	sess     *scout.Session
	expected [][]object.Ref // hypothesis per state: 0 standing, j+1 set j evicted
}

// apply moves the fabric from state from to state to (0: standing; j+1:
// set j evicted). Every eviction is followed by its restore, so one of
// the two is 0.
func (p *probeState) apply(from, to int) error {
	if to > 0 {
		return runTransitions(p.f, p.sets[to-1].apply)
	}
	return runTransitions(p.f, p.sets[from-1].revert)
}

// truthOf is the ground truth of state s: evicted switches are faulty.
func (p *probeState) truthOf(s int) []object.Ref {
	set := object.NewSet(p.truth...)
	if s > 0 {
		for _, sw := range p.sets[s-1].switches {
			set.Add(object.Switch(sw))
		}
	}
	return set.Sorted()
}

// newProbeState builds the faulty fabric, draws the eviction sets and
// visits every state once through a probe-mode session.
func newProbeState(h *harness) (*probeState, error) {
	pol, tp, err := h.genAndCompile()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(h.cfg.seed))
	f, truth, err := faultyFabric(pol, tp, rng)
	if err != nil {
		return nil, err
	}
	p := &probeState{f: f, truth: truth, standing: snapshotTCAMs(f)}
	// The sets take the switches in seeded rounds, each switch once per
	// round, so every switch is evicted about equally often: a round's
	// cost follows the size of the switches it reclassifies.
	switches := sortedSwitches(f.Deployment())
	var picks []int
	for len(p.sets) < probeSets {
		var set []int
		for len(set) < probeSetSwitches {
			if len(picks) == 0 {
				picks = rng.Perm(len(switches))
			}
			if !slices.Contains(set, picks[0]) {
				set = append(set, picks[0])
			}
			picks = picks[1:]
		}
		for _, i := range set {
			if _, err := f.EvictTCAM(switches[i], 4+rng.Intn(8)); err != nil {
				return nil, err
			}
		}
		c, err := recordChange(f, p.standing)
		if errors.Is(err, errNotReplayable) {
			continue
		}
		if err != nil {
			return nil, err
		}
		p.sets = append(p.sets, c)
	}
	opts := h.analyzerOptions()
	opts.UseProbes = true
	if p.sess, err = scout.NewSession(f, opts); err != nil {
		return nil, err
	}
	rep, err := p.sess.Analyze()
	if err != nil {
		return nil, err
	}
	p.expected = append(p.expected, rep.Hypothesis)
	for j := range p.sets {
		for _, s := range []int{j + 1, 0} {
			if err := p.apply(j+1-s, s); err != nil {
				return nil, err
			}
			rep, err := p.sess.Analyze()
			if err != nil {
				return nil, err
			}
			if s > 0 {
				p.expected = append(p.expected, rep.Hypothesis)
			} else if !sameRefs(rep.Hypothesis, p.expected[0]) {
				return nil, fmt.Errorf("restoring set %d left hypothesis %v, want %v", j, rep.Hypothesis, p.expected[0])
			}
		}
	}
	return p, nil
}

// runProbe is the probe-rounds workload: a closed loop, one client. The
// harness evicts rules on a few switches (or restores them), untimed,
// then one probe-mode Session.Analyze round is timed.
func runProbe(h *harness) error {
	p, _, err := setup(h, func() (*probeState, func(), error) {
		p, err := newProbeState(h)
		return p, func() {}, err
	})
	if err != nil {
		return err
	}
	switches := fabricSwitches(p.f)
	var prober *probe.Prober
	if h.cfg.trace {
		id := h.tr.beginOp("perfbench.setup")
		h.setupOps[h.tr.op] = true
		prober = probe.New(p.f.Deployment())
		h.rp.ctrlPristine = h.rp.controllerModel(p.f.Deployment())
		if _, err := h.rp.probeRound(p.f, prober, switches); err != nil {
			return err
		}
		// Visit every eviction state once, as the session did.
		for j := range p.sets {
			for _, s := range []int{j + 1, 0} {
				if err := p.apply(j+1-s, s); err != nil {
					return err
				}
				if _, err := h.rp.probeRound(p.f, prober, switches); err != nil {
					return err
				}
			}
		}
		h.tr.end(id)
	}

	state := 0
	h.startTimed()
	for i := 0; h.more(); i++ {
		prev := state
		state = 0
		if i%2 == 0 {
			state = (i/2)%len(p.sets) + 1
		}
		if err := p.apply(prev, state); err != nil {
			return err
		}
		changed := time.Now()
		traced := h.beginOp()
		before := p.sess.Stats()
		pbefore, _ := p.sess.ProberStats()
		var rep *scout.Report
		err := h.program("scout.Session.Analyze", traced, func() error {
			var err error
			rep, err = p.sess.Analyze()
			return err
		})
		h.r.freshMS = append(h.r.freshMS, float64(time.Since(changed))/float64(time.Millisecond))
		if err != nil {
			h.r.fail("round %d: %v", h.ops, err)
			h.endOp(traced)
			continue
		}
		after := p.sess.Stats()
		classified := after.ProbeSwitchesClassified - before.ProbeSwitchesClassified
		replayed := after.ProbeSwitchesReplayed - before.ProbeSwitchesReplayed
		switch {
		case classified+replayed != len(switches):
			h.r.fail("round %d: %d classified + %d replayed != %d switches", h.ops, classified, replayed, len(switches))
		case rep.Consistent || !sameRefs(rep.Hypothesis, p.expected[state]):
			h.r.fail("round %d: state %d hypothesis %v, want %v", h.ops, state, rep.Hypothesis, p.expected[state])
		}
		h.r.score(state, rep.Controller, p.truthOf(state))
		if traced {
			pafter, _ := p.sess.ProberStats()
			h.add("collect.switches_read", float64(len(rep.Switches)))
			h.add("collect.rules_copied", tcamRules(p.f, nil))
			h.add("probe.switches_classified", float64(classified))
			h.addRatio("probe.replay_ratio", float64(replayed), float64(classified+replayed))
			h.addRatio("scout.replay_ratio", float64(replayed), float64(classified+replayed))
			mh, mm := float64(pafter.MemoHits-pbefore.MemoHits), float64(pafter.MemoMisses-pbefore.MemoMisses)
			h.addRatio("probe.memo_hit_ratio", mh, mh+mm)
			h.add("tcam.packets_classified", float64(pafter.BatchedPackets-pbefore.BatchedPackets+
				pafter.FallbackProbes-pbefore.FallbackProbes))
			h.add("scout.over_cap", float64(after.OverCap-before.OverCap))
			h.localizeCounters(rep)
			err := h.replay(func() error {
				res, err := h.rp.probeRound(p.f, prober, switches)
				if err == nil {
					h.checkReplay(replayOutcome{hypothesis: resultHypothesis(res), baseNodes: -1}, rep)
				}
				return err
			})
			if err != nil {
				h.r.fail("round %d: replay: %v", h.ops, err)
			}
		}
		h.endOp(traced)
	}
	h.finish()
	runtime.KeepAlive(p) // the live heap counts what the workload keeps
	return nil
}
