package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"scout/internal/compile"
	"scout/internal/fabric"
	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/tcam"
	"scout/internal/topo"
	"scout/internal/workload"
)

// policySeed fixes the generated policy, so every run analyzes the same
// input size; --seed drives everything else (faults, scenario corpus,
// change-log noise, incident scripts). SmallFabricSpec's size swings
// from 12k to 25k rules across generator seeds, which would swamp the
// seed-to-seed spread the benchmark must keep under its bounds.
const policySeed = 14

// genPolicy generates the benchmark's policy and topology.
func genPolicy() (*policy.Policy, *topo.Topology, error) {
	return workload.Generate(workload.SmallFabricSpec(), policySeed)
}

// newFabric builds a fabric for the policy and deploys it.
func newFabric(pol *policy.Policy, tp *topo.Topology, seed int64) (*fabric.Fabric, error) {
	f, err := fabric.New(pol, tp, fabric.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := f.Deploy(); err != nil {
		return nil, err
	}
	return f, nil
}

// faultOptions selects a scenario's shape.
type faultOptions struct {
	faults int // object faults injected
	noise  int // healthy objects given a recent change-log entry
}

// injectScenario samples a scenario from the deployed objects, injects
// its object faults into the fabric's TCAMs and records the change-log
// noise. It returns the ground truth and the number of rules removed.
func injectScenario(f *fabric.Fabric, rng *rand.Rand, o faultOptions) ([]object.Ref, int, error) {
	cands := workload.BuildIndex(f.Deployment()).Objects()
	sc, err := workload.NewScenario(rng, cands, o.faults, o.noise)
	if err != nil {
		return nil, 0, err
	}
	removed := 0
	for _, flt := range sc.Faults {
		n, err := f.InjectObjectFault(flt.Ref, flt.Fraction)
		if err != nil {
			return nil, 0, err
		}
		removed += n
	}
	truth := object.NewSet(sc.GroundTruth...)
	for _, ref := range sc.Changed.Sorted() {
		if !truth.Has(ref) {
			f.RecordChange(faultlog.OpModify, ref, "unrelated operator action")
		}
	}
	return sc.GroundTruth, removed, nil
}

// tcamState is the TCAM content of some switches.
type tcamState map[object.ID][]rule.Rule

// snapshotTCAMs copies the TCAM content of every switch.
func snapshotTCAMs(f *fabric.Fabric) tcamState {
	return tcamState(f.CollectAll())
}

// changedSince returns the switches whose TCAM differs from before,
// with their current content.
func changedSince(f *fabric.Fabric, before tcamState) tcamState {
	out := make(tcamState)
	for sw, rules := range f.CollectAll() {
		if !rule.SlicesEqual(rules, before[sw]) {
			out[sw] = rules
		}
	}
	return out
}

// restrict returns s's content of the switches other lists.
func (s tcamState) restrict(other tcamState) tcamState {
	out := make(tcamState, len(other))
	for sw := range other {
		out[sw] = s[sw]
	}
	return out
}

// switchesOf lists a state's switches in ascending order.
func (s tcamState) switchesOf() []object.ID {
	out := make([]object.ID, 0, len(s))
	for sw := range s {
		out = append(out, sw)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// reinstall sets the listed switches' TCAMs to the given content by
// clearing and refilling them. Set-up uses it to undo the fabric's own
// fault injectors.
func reinstall(f *fabric.Fabric, st tcamState) error {
	for _, sw := range st.switchesOf() {
		s, err := f.Switch(sw)
		if err != nil {
			return err
		}
		t := s.TCAM()
		t.Clear()
		for _, r := range st[sw] {
			if err := t.Install(r); err != nil {
				return fmt.Errorf("reinstall switch %d: %w", sw, err)
			}
		}
	}
	return nil
}

// transition rewrites one switch's TCAM from one known content to
// another: it removes the old content from the first rule where the two
// differ, last rule first, and installs the new content's tail in order.
// An install lands at the end of its priority band, so keeping the exact
// order takes rewriting the whole tail; that is still far cheaper than a
// full reinstall, and keeps the harness's own injections from eating
// into the freshness it measures.
type transition struct {
	sw       object.ID
	old, new []rule.Rule
}

func (t transition) run(f *fabric.Fabric) error {
	s, err := f.Switch(t.sw)
	if err != nil {
		return err
	}
	tc := s.TCAM()
	for i := len(t.old) - 1; i >= 0; i-- {
		tc.Remove(t.old[i].Key())
	}
	for _, r := range t.new {
		if err := tc.Install(r); err != nil {
			return fmt.Errorf("switch %d: %w", t.sw, err)
		}
	}
	return nil
}

// change is a precomputed move of some switches between two TCAM
// contents, and its inverse.
type change struct {
	switches      []object.ID
	apply, revert []transition
}

// plan computes the transitions from one content to another.
func plan(from, to tcamState) []transition {
	var out []transition
	for _, sw := range to.switchesOf() {
		a, b := from[sw], to[sw]
		i := 0
		for i < len(a) && i < len(b) && a[i].Equal(b[i]) {
			i++
		}
		out = append(out, transition{sw: sw, old: a[i:], new: b[i:]})
	}
	return out
}

// runTransitions performs transitions and emits one TCAM-change event
// per switch to the fabric's event log, as the fabric's own mutators do.
func runTransitions(f *fabric.Fabric, ts []transition) error {
	for _, t := range ts {
		if err := t.run(f); err != nil {
			return err
		}
		f.EventLog().Append(f.Now(), faultlog.EventTCAMChange, t.sw, "scripted change")
	}
	return nil
}

// newChange precomputes the change between the fabric's current content
// base and target, and checks on the live fabric, without events, that
// both directions reproduce the contents exactly (a corruption that
// aliases two rules cannot be replayed this way). The fabric is left in
// base.
func newChange(f *fabric.Fabric, base, target tcamState) (change, error) {
	from := base.restrict(target)
	c := change{switches: target.switchesOf(), apply: plan(from, target), revert: plan(target, from)}
	for _, step := range []struct {
		ts   []transition
		want tcamState
	}{{c.apply, target}, {c.revert, from}} {
		for _, t := range step.ts {
			if err := t.run(f); err != nil {
				return change{}, err
			}
		}
		if !matches(f, step.want) {
			if err := reinstall(f, from); err != nil {
				return change{}, err
			}
			return change{}, errNotReplayable
		}
	}
	return c, nil
}

var errNotReplayable = errors.New("state change cannot be replayed exactly")

// matches reports whether the listed switches hold exactly st's content.
func matches(f *fabric.Fabric, st tcamState) bool {
	for sw, want := range st {
		got, err := f.CollectTCAM(sw)
		if err != nil || !rule.SlicesEqual(got, want) {
			return false
		}
	}
	return true
}

// incident is one precomputed fault and the object it should be blamed
// on.
type incident struct {
	kind string
	change
	truth object.Ref
}

// makeIncidents precomputes n incidents over a fabric in its standing
// state, in the repeating pattern partial object fault, eviction,
// corruption, eviction, corruption. An object fault dirties several
// switches and the others one, so four in five rounds are single-switch
// rounds: the median round then sits inside that cluster instead of on
// the edge between the two, where it would swing with the seed. The
// report tail is then the middle of the multi-switch rounds, so every
// object fault has the same shape: it removes incidentRules rules of an
// object deployed on every switch and is redrawn until it touches them
// all, since a round's cost follows the switches it rechecks and the
// session's live heap the rules it removes. Each
// incident is made by the fabric's own fault injector, its result
// recorded and the standing content reinstalled, so replaying it later
// reproduces exactly the same state; one that cannot be replayed exactly
// is redrawn.
func makeIncidents(f *fabric.Fabric, rng *rand.Rand, n int, standing tcamState) ([]incident, error) {
	d := f.Deployment()
	switches := sortedSwitches(d)
	cands := wideObjects(workload.BuildIndex(d), len(switches), 2*incidentRules)
	if len(cands) == 0 {
		return nil, errors.New("no object is deployed widely enough for an object-fault incident")
	}
	// Single-switch incidents take the switches in a seeded order, each
	// once before any repeats: a round's cost follows the size of the
	// switch it rechecks, and the median round is one of these.
	order := rng.Perm(len(switches))
	single := 0
	var out []incident
	for tries := 0; len(out) < n; tries++ {
		if tries > 20*n {
			return nil, fmt.Errorf("could not draw %d replayable incidents", n)
		}
		var inc incident
		switch len(out) % 5 {
		case 0:
			obj := cands[rng.Intn(len(cands))]
			if _, err := f.InjectObjectFault(obj.ref, float64(incidentRules)/float64(obj.rules)); err != nil {
				return nil, err
			}
			inc = incident{kind: "partial-object-fault", truth: obj.ref}
		case 1, 3:
			sw := switches[order[single%len(order)]]
			if _, err := f.EvictTCAM(sw, 4+rng.Intn(8)); err != nil {
				return nil, err
			}
			inc = incident{kind: "evict", truth: object.Switch(sw)}
		case 2, 4:
			sw := switches[order[single%len(order)]]
			if _, err := f.CorruptTCAM(sw, 2+rng.Intn(4), fabricCorruptField(rng)); err != nil {
				return nil, err
			}
			inc = incident{kind: "corrupt", truth: object.Switch(sw)}
		}
		c, err := recordChange(f, standing)
		if errors.Is(err, errNotReplayable) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if inc.kind == "partial-object-fault" && len(c.switches) < len(switches) {
			continue
		}
		inc.change = c
		out = append(out, inc)
		if inc.kind != "partial-object-fault" {
			single++
		}
	}
	return out, nil
}

// incidentRules is the number of rules an object-fault incident removes.
const incidentRules = 200

// wideObject is a policy object and its deployed rule count.
type wideObject struct {
	ref   object.Ref
	rules int
}

// wideObjects lists, in the index's order, the objects with at least
// minRules deployed rules, on every one of the given number of switches.
func wideObjects(idx *workload.DepIndex, switches, minRules int) []wideObject {
	var out []wideObject
	for _, ref := range idx.Objects() {
		inst := idx.Instances(ref)
		on := make(map[object.ID]bool)
		for _, in := range inst {
			on[in.SP.Switch] = true
		}
		if len(inst) >= minRules && len(on) == switches {
			out = append(out, wideObject{ref, len(inst)})
		}
	}
	return out
}

// recordChange turns whatever the fabric's injectors just did to its
// TCAMs into a replayable change from base, and puts base back.
func recordChange(f *fabric.Fabric, base tcamState) (change, error) {
	target := changedSince(f, base)
	if err := reinstall(f, base.restrict(target)); err != nil {
		return change{}, err
	}
	if len(target) == 0 {
		return change{}, errNotReplayable
	}
	return newChange(f, base, target)
}

// fabricCorruptField picks the rule field a corruption flips. VRF flips
// are left out: they move a rule out of every EPG pair's scope, which
// the other fields already cover.
func fabricCorruptField(rng *rand.Rand) tcam.CorruptionField {
	fields := []tcam.CorruptionField{tcam.CorruptSrcEPG, tcam.CorruptDstEPG, tcam.CorruptPort}
	return fields[rng.Intn(len(fields))]
}

// sortedSwitches lists a deployment's switches in ascending order.
func sortedSwitches(d *compile.Deployment) []object.ID {
	out := make([]object.ID, 0, len(d.BySwitch))
	for sw := range d.BySwitch {
		out = append(out, sw)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// fabricSwitches lists a fabric's switches in ascending order, the
// order the analyzer assembles reports in.
func fabricSwitches(f *fabric.Fabric) []object.ID {
	out := f.Topology().Switches()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
