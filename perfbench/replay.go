package main

import (
	"fmt"
	"sort"
	"time"

	"scout/internal/collect"
	"scout/internal/compile"
	"scout/internal/correlate"
	"scout/internal/equiv"
	"scout/internal/fabric"
	"scout/internal/faultlog"
	"scout/internal/localize"
	"scout/internal/object"
	"scout/internal/probe"
	"scout/internal/risk"
	"scout/internal/rule"
	"scout/internal/store"
	"scout/internal/tcam"
)

// changeWindow is the analyzer's default change-log window.
const changeWindow = 24 * time.Hour

// baseSemanticsTopK is the number of whole-switch rule lists the
// analyzer freezes into its shared base.
const baseSemanticsTopK = 1024

// replayer re-drives, on the inputs of one program report, the stages
// that scout's Analyzer and Session run internally, with a span around
// every call into a layer's public function. Its results are compared
// with the program's report, so a replay that drifts from the program
// shows as a failed operation rather than as wrong per-layer numbers.
//
// The replay runs serially; the program fans per-switch stages out over
// its workers. Layer times are therefore work, not critical path.
type replayer struct {
	tr     *tracer
	engine *correlate.Engine
	counts map[string]float64

	// Session-mode state, kept across operations like a Session keeps it.
	ctrlPristine *risk.Model
	verdicts     map[object.ID]cachedVerdict
	models       map[object.ID]cachedModel
}

type cachedVerdict struct {
	tcamFP uint64
	report *equiv.Report
}

type cachedModel struct {
	report *equiv.Report
	model  *risk.Model
}

func newReplayer(tr *tracer, counts map[string]float64) *replayer {
	return &replayer{tr: tr, engine: correlate.NewEngine(nil), counts: counts,
		verdicts: make(map[object.ID]cachedVerdict), models: make(map[object.ID]cachedModel)}
}

// fingerprint hashes one rule list.
func (r *replayer) fingerprint(rules []rule.Rule) uint64 {
	var fp uint64
	r.tr.do("equiv.Fingerprint", "equiv.fingerprint_ms", func() { fp = equiv.Fingerprint(rules) })
	return fp
}

// check runs one equivalence check.
func (r *replayer) check(c *equiv.Checker, logical, deployed []rule.Rule) (*equiv.Report, error) {
	var rep *equiv.Report
	var err error
	r.tr.do("equiv.Checker.Check", "equiv.check_ms", func() { rep, err = c.Check(logical, deployed) })
	return rep, err
}

// buildBase builds the shared frozen base the way the analyzer does: the
// deployment's distinct matches, sorted, plus the most duplicated
// whole-switch rule lists (count descending, fingerprint tiebreak,
// lowest switch as representative).
func (r *replayer) buildBase(d *compile.Deployment) *equiv.Base {
	var base *equiv.Base
	r.tr.do("equiv.NewBaseWith", "equiv.base_build_ms", func() {
		switches := sortedSwitches(d)
		merged := make(map[rule.Match]struct{})
		type group struct {
			fp    uint64
			count int
			rep   object.ID
		}
		byFP := make(map[uint64]int)
		var groups []group
		for _, sw := range switches {
			rules := d.BySwitch[sw]
			equiv.CollectMatches(merged, rules)
			fp := equiv.SemanticsFingerprint(rules)
			if g, ok := byFP[fp]; ok {
				groups[g].count++
				continue
			}
			byFP[fp] = len(groups)
			groups = append(groups, group{fp: fp, count: 1, rep: sw})
		}
		matches := make([]rule.Match, 0, len(merged))
		for m := range merged {
			matches = append(matches, m)
		}
		equiv.SortMatches(matches)
		sort.Slice(groups, func(i, j int) bool {
			if groups[i].count != groups[j].count {
				return groups[i].count > groups[j].count
			}
			return groups[i].fp < groups[j].fp
		})
		if len(groups) > baseSemanticsTopK {
			groups = groups[:baseSemanticsTopK]
		}
		lists := make([][]rule.Rule, len(groups))
		for i, g := range groups {
			lists[i] = d.BySwitch[g.rep]
		}
		base, _ = equiv.NewBaseWith(nil, matches, lists...)
	})
	return base
}

// controllerModel builds the pristine controller risk model.
func (r *replayer) controllerModel(d *compile.Deployment) *risk.Model {
	var m *risk.Model
	r.tr.do("risk.BuildControllerModel", "risk.controller_build_ms", func() {
		m = risk.BuildControllerModel(d, risk.ControllerModelOptions{IncludeSwitchRisk: true})
	})
	return m
}

// overlay stacks a fresh failure overlay on the cached pristine model.
func (r *replayer) overlay() *risk.Overlay {
	var o *risk.Overlay
	r.tr.do("risk.NewOverlay", "risk.augment_ms", func() { o = risk.NewOverlay(r.ctrlPristine) })
	return o
}

// switchModel returns the annotated switch risk model for a report,
// reusing the cached model while the switch's report is unchanged (as a
// session does; a one-shot replay passes cache=false).
func (r *replayer) switchModel(d *compile.Deployment, sw object.ID, rep *equiv.Report, cache bool) *risk.Model {
	if ent, ok := r.models[sw]; cache && ok && ent.report == rep {
		return ent.model
	}
	var m *risk.Model
	r.tr.do("risk.BuildAnnotatedSwitchModel", "risk.switch_model_ms", func() {
		m = risk.BuildAnnotatedSwitchModel(d, sw, rep.MissingRules)
	})
	if cache {
		r.models[sw] = cachedModel{report: rep, model: m}
	}
	return m
}

// inputs are the collected state a report is computed from.
type inputs struct {
	d       *compile.Deployment
	changes *faultlog.ChangeLog
	faults  *faultlog.FaultLog
	now     time.Time
}

func fabricInputs(f *fabric.Fabric) inputs {
	return inputs{d: f.Deployment(), changes: f.ChangeLog(), faults: f.FaultLog(), now: f.Now()}
}

// assemble mirrors the analyzer's stages after the check: per
// inequivalent switch a switch-model localization and a controller-model
// patch, the patches applied in switch order, then the controller
// localization and correlation. It returns the controller result (nil
// when every switch is equivalent).
func (r *replayer) assemble(ctrl risk.Marker, in inputs, switches []object.ID, reps []*equiv.Report, cacheModels bool) *localize.Result {
	oracle := localize.ChangeLogOracle{Log: in.changes, Since: in.now.Add(-changeWindow)}
	patches := make([]*risk.Patch, len(switches))
	consistent := true
	for i, sw := range switches {
		rep := reps[i]
		if rep.Equivalent {
			continue
		}
		consistent = false
		m := r.switchModel(in.d, sw, rep, cacheModels)
		r.tr.do("localize.Scout", "localize.ms", func() { localize.Scout(m, oracle) })
		r.tr.do("risk.AugmentControllerModelPatch", "risk.augment_ms", func() {
			patches[i] = risk.AugmentControllerModelPatch(ctrl, sw, rep.MissingRules, in.d.Provenance)
		})
	}
	for i := range switches {
		if !reps[i].Equivalent {
			p := patches[i]
			r.tr.do("risk.Patch.Apply", "risk.augment_ms", func() { p.Apply(ctrl) })
		}
	}
	r.counts["risk.failed_edges"] += float64(ctrl.NumFailedEdges())
	if consistent {
		return nil
	}
	var res *localize.Result
	r.tr.do("localize.Scout", "localize.ms", func() { res = localize.Scout(ctrl, oracle) })
	r.tr.do("correlate.Engine.Correlate", "correlate.ms", func() {
		r.engine.Correlate(res.Hypothesis, in.changes, in.faults)
	})
	return res
}

// replayOutcome is what a replay is checked against the program's
// report with.
type replayOutcome struct {
	hypothesis []object.Ref
	baseNodes  int // -1 when the path has no shared base
}

func resultHypothesis(res *localize.Result) []object.Ref {
	if res == nil {
		return nil
	}
	return res.Hypothesis
}

// cold replays a one-shot Analyzer.Analyze of the fabric: full
// collection, dedup fingerprints, shared-base build, one check per
// dedup group, the controller-model build and the assemble stages.
func (r *replayer) cold(f *fabric.Fabric) (replayOutcome, error) {
	in := fabricInputs(f)
	var tcams map[object.ID][]rule.Rule
	r.tr.do("fabric.Fabric.CollectAll", "collect.ms", func() { tcams = f.CollectAll() })
	switches := make([]object.ID, 0, len(tcams))
	for sw := range tcams {
		switches = append(switches, sw)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })
	type key [2]uint64
	groups := make(map[key][]object.ID)
	reps := make([]*equiv.Report, len(switches))
	base := r.buildBase(in.d)
	var c *equiv.Checker
	r.tr.do("equiv.Base.NewChecker", "equiv.check_ms", func() { c = base.NewChecker() })
	reportOf := make(map[object.ID]*equiv.Report)
	for i, sw := range switches {
		k := key{r.fingerprint(in.d.RulesFor(sw)), r.fingerprint(tcams[sw])}
		for _, rep := range groups[k] {
			if rule.SlicesEqual(in.d.RulesFor(sw), in.d.RulesFor(rep)) && rule.SlicesEqual(tcams[sw], tcams[rep]) {
				reps[i] = reportOf[rep]
				break
			}
		}
		if reps[i] != nil {
			continue
		}
		rep, err := r.check(c, in.d.RulesFor(sw), tcams[sw])
		if err != nil {
			return replayOutcome{}, fmt.Errorf("replay check switch %d: %w", sw, err)
		}
		reps[i] = rep
		reportOf[sw] = rep
		groups[k] = append(groups[k], sw)
	}
	ctrl := r.controllerModel(in.d)
	res := r.assemble(ctrl, in, switches, reps, false)
	return replayOutcome{hypothesis: resultHypothesis(res), baseNodes: base.Size()}, nil
}

// sessionReports returns the cached verdicts in switch order.
func (r *replayer) sessionReports(switches []object.ID) []*equiv.Report {
	reps := make([]*equiv.Report, len(switches))
	for i, sw := range switches {
		reps[i] = r.verdicts[sw].report
	}
	return reps
}

// watchRound replays one Session.ApplyEvents round: a partial
// collection of the dirty switches, their fingerprints, a re-check of
// those whose TCAM content moved, and the assemble stages over a fresh
// overlay of the cached controller model.
func (r *replayer) watchRound(col *collect.Collector, c *equiv.Checker, in inputs, switches, dirty []object.ID) (*localize.Result, error) {
	var ep *collect.Epoch
	var err error
	r.tr.do("collect.Collector.SnapshotSwitches", "collect.ms", func() { ep, err = col.SnapshotSwitches(dirty) })
	if err != nil {
		return nil, err
	}
	for _, sw := range dirty {
		fp := r.fingerprint(ep.TCAM[sw])
		if v, ok := r.verdicts[sw]; ok && v.tcamFP == fp {
			continue
		}
		rep, err := r.check(c, in.d.RulesFor(sw), ep.TCAM[sw])
		if err != nil {
			return nil, fmt.Errorf("replay check switch %d: %w", sw, err)
		}
		r.verdicts[sw] = cachedVerdict{tcamFP: fp, report: rep}
	}
	return r.assemble(r.overlay(), in, switches, r.sessionReports(switches), true), nil
}

// tracedDataplane wraps a switch TCAM so the prober's batch
// classifications show as tcam spans inside the probe span.
type tracedDataplane struct {
	t  *tcam.TCAM
	tr *tracer
}

func (d tracedDataplane) Classify(vrf, src, dst object.ID, proto rule.Protocol, port uint16) (rule.Action, bool) {
	return d.t.Classify(vrf, src, dst, proto, port)
}

func (d tracedDataplane) ClassifyBatch(pkts []tcam.Packet) []tcam.Outcome {
	var out []tcam.Outcome
	d.tr.do("tcam.TCAM.ClassifyBatch", "tcam.classify_ms", func() { out = d.t.ClassifyBatch(pkts) })
	return out
}

// probeRound replays one probe-mode Session.Analyze round: every
// switch's live TCAM is read and fingerprinted, switches whose content
// moved are probed, and the assemble stages run over a fresh overlay.
func (r *replayer) probeRound(f *fabric.Fabric, prober *probe.Prober, switches []object.ID) (*localize.Result, error) {
	in := fabricInputs(f)
	for _, sw := range switches {
		var rules []rule.Rule
		var err error
		r.tr.do("fabric.Fabric.CollectTCAM", "collect.ms", func() { rules, err = f.CollectTCAM(sw) })
		if err != nil {
			return nil, err
		}
		fp := r.fingerprint(rules)
		if v, ok := r.verdicts[sw]; ok && v.tcamFP == fp {
			continue
		}
		s, err := f.Switch(sw)
		if err != nil {
			return nil, err
		}
		var violations []probe.Violation
		r.tr.do("probe.Prober.ProbeSwitch", "probe.ms", func() {
			violations = prober.ProbeSwitch(sw, tracedDataplane{t: s.TCAM(), tr: r.tr})
		})
		rep := &equiv.Report{Equivalent: len(violations) == 0, MissingRules: probe.MissingRules(violations)}
		r.verdicts[sw] = cachedVerdict{tcamFP: fp, report: rep}
	}
	return r.assemble(r.overlay(), in, switches, r.sessionReports(switches), true), nil
}

// restart replays a warm restart: open the store, load the frozen base
// and the verdicts for the deployment's fingerprint, collect and
// fingerprint every switch, replay the verdicts whose fingerprints
// still match (checking the rest), build the controller model and run
// the assemble stages.
func (r *replayer) restart(f *fabric.Fabric, dir string) (replayOutcome, error) {
	in := fabricInputs(f)
	var ws *store.Store
	var err error
	r.tr.do("store.Open", "store.load_ms", func() { ws, err = store.Open(dir) })
	if err != nil {
		return replayOutcome{}, err
	}
	defer ws.Close()
	var perSwitch map[object.ID]uint64
	var depFP uint64
	r.tr.do("equiv.DeploymentFingerprints", "equiv.fingerprint_ms", func() {
		perSwitch, depFP = equiv.DeploymentFingerprints(in.d.BySwitch)
	})
	var base *equiv.Base
	r.tr.do("store.Store.LoadBase", "store.load_ms", func() { base, err = ws.LoadBase(depFP) })
	if err != nil || base == nil {
		return replayOutcome{}, fmt.Errorf("replay load base: %v", err)
	}
	var vs []store.Verdict
	r.tr.do("store.Store.LoadVerdicts", "store.load_ms", func() { vs, err = ws.LoadVerdicts(depFP, false) })
	if err != nil {
		return replayOutcome{}, fmt.Errorf("replay load verdicts: %w", err)
	}
	var tcams map[object.ID][]rule.Rule
	r.tr.do("fabric.Fabric.CollectAll", "collect.ms", func() { tcams = f.CollectAll() })
	switches := make([]object.ID, 0, len(tcams))
	for sw := range tcams {
		switches = append(switches, sw)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })
	loaded := make(map[object.ID]store.Verdict, len(vs))
	for _, v := range vs {
		loaded[v.Switch] = v
	}
	var c *equiv.Checker
	reps := make([]*equiv.Report, len(switches))
	for i, sw := range switches {
		fp := r.fingerprint(tcams[sw])
		if v, ok := loaded[sw]; ok && v.LogicalFP == perSwitch[sw] && v.TCAMFP == fp {
			reps[i] = v.Report
			continue
		}
		if c == nil {
			r.tr.do("equiv.Base.NewChecker", "equiv.check_ms", func() { c = base.NewChecker() })
		}
		if reps[i], err = r.check(c, in.d.RulesFor(sw), tcams[sw]); err != nil {
			return replayOutcome{}, err
		}
	}
	r.ctrlPristine = r.controllerModel(in.d)
	res := r.assemble(r.overlay(), in, switches, reps, false)
	return replayOutcome{hypothesis: resultHypothesis(res), baseNodes: base.Size()}, nil
}

// sameRefs reports whether two hypotheses are identical.
func sameRefs(a, b []object.Ref) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
