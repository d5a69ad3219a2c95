package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"scout"
	"scout/internal/fabric"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/topo"
)

// coldCorpus is the number of scenarios cold-diagnose cycles through;
// precision and recall are the means over them. It is odd so the traced
// run's traced and untraced operation pairs both cover every scenario.
const coldCorpus = 13

// coldFaults shapes each scenario: full and partial object faults mixed,
// plus healthy objects with recent change-log entries.
var coldFaults = faultOptions{faults: 4, noise: 3}

type coldScenario struct{ fabricSeed, faultSeed int64 }

// buildCold builds and deploys a fabric and injects scenario s.
func buildCold(pol *policy.Policy, tp *topo.Topology, s coldScenario) (*fabric.Fabric, []object.Ref, int, error) {
	f, err := newFabric(pol, tp, s.fabricSeed)
	if err != nil {
		return nil, nil, 0, err
	}
	truth, removed, err := injectScenario(f, rand.New(rand.NewSource(s.faultSeed)), coldFaults)
	return f, truth, removed, err
}

// runCold is the cold-diagnose workload: a closed loop, one client, each
// operation a fresh Analyzer's Analyze of a fabric carrying one scenario
// of the seeded corpus. Building the fabric and injecting the faults is
// not timed.
func runCold(h *harness) error {
	type state struct {
		pol    *policy.Policy
		tp     *topo.Topology
		corpus []coldScenario
	}
	st, _, err := setup(h, func() (state, func(), error) {
		pol, tp, err := h.genAndCompile()
		if err != nil {
			return state{}, nil, err
		}
		rng := rand.New(rand.NewSource(h.cfg.seed))
		corpus := make([]coldScenario, coldCorpus)
		for i := range corpus {
			corpus[i] = coldScenario{rng.Int63(), rng.Int63()}
		}
		// Warm-up: the first full report.
		f, _, _, err := buildCold(pol, tp, corpus[0])
		if err != nil {
			return state{}, nil, err
		}
		if _, err := scout.NewAnalyzer(h.analyzerOptions()).Analyze(f); err != nil {
			return state{}, nil, err
		}
		return state{pol, tp, corpus}, func() {}, nil
	})
	if err != nil {
		return err
	}

	h.startTimed()
	for i := 0; h.more(); i++ {
		idx := i % coldCorpus
		f, truth, removed, err := buildCold(st.pol, st.tp, st.corpus[idx])
		if err != nil {
			return err
		}
		// A one-shot diagnosis starts clean: the fabric build's garbage
		// is not the analyzer's to collect.
		runtime.GC()
		injected := time.Now()
		traced := h.beginOp()
		var rep *scout.Report
		err = h.program("scout.Analyzer.Analyze", traced, func() error {
			var err error
			rep, err = scout.NewAnalyzer(h.analyzerOptions()).Analyze(f)
			return err
		})
		h.r.freshMS = append(h.r.freshMS, float64(time.Since(injected))/float64(time.Millisecond))
		if err != nil {
			h.r.fail("op %d: %v", h.ops, err)
			h.endOp(traced)
			continue
		}
		if removed > 0 && rep.Consistent {
			h.r.fail("op %d: %d rules removed but the report is consistent", h.ops, removed)
		}
		h.r.score(idx, rep.Controller, truth)
		if traced {
			h.coldCounters(f, rep)
			err := h.replay(func() error {
				out, err := h.rp.cold(f)
				if err == nil {
					h.checkReplay(out, rep)
				}
				return err
			})
			if err != nil {
				h.r.fail("op %d: replay: %v", h.ops, err)
			}
		}
		h.endOp(traced)
	}
	h.finish()
	runtime.KeepAlive(st) // the live heap counts what the workload keeps
	return nil
}

// coldCounters records a one-shot report's public counters.
func (h *harness) coldCounters(f *fabric.Fabric, rep *scout.Report) {
	n := float64(len(rep.Switches))
	h.add("collect.switches_read", n)
	h.add("collect.rules_copied", tcamRules(f, nil))
	if es := rep.EncodeStats; es != nil {
		h.add("equiv.switches_checked", n-float64(es.DedupReplays))
		h.addRatio("equiv.encode_hit_ratio", float64(es.Hits()), float64(es.Hits()+es.Misses))
		h.addRatio("equiv.fold_hit_ratio", float64(es.FoldHits()), float64(es.FoldHits()+es.FoldMisses))
		h.addRatio("bdd.opcache_hit_ratio", float64(es.OpCache.Hits()), float64(es.OpCache.Hits()+es.OpCache.Misses))
		h.add("bdd.compactions", float64(es.Compactions))
		h.gauges["bdd.base_nodes"] = float64(es.BaseNodes)
		h.gauges["bdd.delta_nodes"] = float64(es.DeltaNodes)
		h.addRatio("scout.replay_ratio", float64(es.DedupReplays), n)
	}
	h.localizeCounters(rep)
}

// localizeCounters records a report's localization-engine counters.
func (h *harness) localizeCounters(rep *scout.Report) {
	if ls := rep.LocalizeStats; ls != nil {
		h.add("localize.plan_compiles", float64(ls.PlanCompiles))
		h.addRatio("localize.plan_reuse_ratio", float64(ls.PlanReuses), float64(ls.PlanReuses+ls.PlanCompiles))
	}
}

// tcamRules counts the TCAM rules of the given switches (all when nil):
// what a collection of them copies.
func tcamRules(f *fabric.Fabric, switches []object.ID) float64 {
	if switches == nil {
		switches = f.Topology().Switches()
	}
	total := 0
	for _, sw := range switches {
		s, err := f.Switch(sw)
		if err != nil {
			panic(fmt.Sprintf("perfbench: switch %d vanished: %v", sw, err))
		}
		total += s.TCAM().Len()
	}
	return float64(total)
}
