package equiv

import (
	"math/rand"
	"reflect"
	"testing"

	"scout/internal/bdd"
	"scout/internal/object"
	"scout/internal/rule"
)

// serialBase is the serial base build the parallel one replaced, kept
// as its oracle: one manager encodes the matches, then grafts or folds
// each distinct list in rank order, sharing one op cache throughout.
func serialBase(src SemanticsSource, matches []rule.Match, semantics ...[]rule.Rule) (*Base, BaseBuildStats) {
	var stats BaseBuildStats
	m := bdd.NewManager(NumVars)
	mem := make(map[rule.Match]bdd.Node, len(matches))
	encode := func(match rule.Match) (bdd.Node, error) {
		if n, ok := mem[match]; ok {
			return n, nil
		}
		n, err := buildMatchBDD(m, match)
		if err != nil {
			return bdd.False, err
		}
		mem[match] = n
		return n, nil
	}
	for _, match := range matches {
		_, _ = encode(match)
	}
	semMem := make(map[uint64]semRoot, len(semantics))
	for _, rules := range semantics {
		fp := SemanticsFingerprint(rules)
		if _, ok := semMem[fp]; ok {
			continue
		}
		if src != nil {
			if donor, droot, ok := src.ResolveSemantics(fp, rules); ok {
				semMem[fp] = semRoot{rules: rules, node: m.Import(donor, droot)}
				stats.SemGrafts++
				continue
			}
		}
		root, err := foldSemantics(m, encode, rules)
		if err != nil {
			continue
		}
		semMem[fp] = semRoot{rules: rules, node: root}
		stats.SemFolds++
	}
	return &Base{snap: m.Freeze(), matchMem: mem, semMem: semMem}, stats
}

// baseSource serves one donor base's semantics roots, verified like the
// store's registry.
type baseSource struct{ donor *Base }

func (s baseSource) ResolveSemantics(fp uint64, rules []rule.Rule) (*bdd.Snapshot, bdd.Node, bool) {
	if e, ok := s.donor.semMem[fp]; ok && SemanticsEqual(e.rules, rules) {
		return s.donor.snap, e.node, true
	}
	return nil, 0, false
}

// parallelBaseInputs draws overlapping rule lists over a small ID space,
// so folds share much of their structure, plus a repeated list to
// exercise the fingerprint dedup. The matches cover only the first
// lists, so later folds encode matches the match snapshot lacks.
func parallelBaseInputs(seed int64) ([]rule.Match, [][]rule.Rule) {
	rng := rand.New(rand.NewSource(seed))
	var lists [][]rule.Rule
	for i := 0; i < 7; i++ {
		lists = append(lists, randomRuleList(rng, 20+rng.Intn(40)))
	}
	lists = append(lists, lists[2])
	return baseMatches(lists[:4]...), lists
}

// assertSameBase fails unless got and want hold node for node the same
// snapshot and the same match and semantics memos.
func assertSameBase(t *testing.T, what string, got, want *Base) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: base has %d nodes, want %d", what, got.Size(), want.Size())
	}
	for i := 0; i < want.Size(); i++ {
		gl, glo, ghi := got.snap.NodeAt(i)
		wl, wlo, whi := want.snap.NodeAt(i)
		if gl != wl || glo != wlo || ghi != whi {
			t.Fatalf("%s: node %d is (%d,%d,%d), want (%d,%d,%d)", what, i, gl, glo, ghi, wl, wlo, whi)
		}
	}
	if !reflect.DeepEqual(got.matchMem, want.matchMem) {
		t.Fatalf("%s: match memos differ", what)
	}
	if len(got.semMem) != len(want.semMem) {
		t.Fatalf("%s: %d semantics roots, want %d", what, len(got.semMem), len(want.semMem))
	}
	for fp, w := range want.semMem {
		if g, ok := got.semMem[fp]; !ok || g.node != w.node || !SemanticsEqual(g.rules, w.rules) {
			t.Fatalf("%s: semantics root %#x differs", what, fp)
		}
	}
}

// TestParallelBaseFanoutIdentity: the fold fan-out never shows in the
// frozen base. Fan-out 1, 2 and 4 give node for node the same snapshot
// and memos, which are the serial oracle's.
func TestParallelBaseFanoutIdentity(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		matches, lists := parallelBaseInputs(seed)
		want, wantStats := serialBase(nil, matches, lists...)
		for _, fanout := range []int{1, 2, 4} {
			got, stats := newBaseWith(nil, fanout, matches, lists)
			assertSameBase(t, "fan-out", got, want)
			if stats != wantStats {
				t.Errorf("seed %d fan-out %d: stats %+v, want %+v", seed, fanout, stats, wantStats)
			}
		}
	}
}

// TestParallelBaseOracleRoots: every root the serial oracle folds
// imports into a fork of the parallel base as that base's own root,
// without building a single delta node.
func TestParallelBaseOracleRoots(t *testing.T) {
	matches, lists := parallelBaseInputs(7)
	want, _ := serialBase(nil, matches, lists...)
	got := NewBase(matches, lists...)
	if got.Size() != want.Size() {
		t.Fatalf("base has %d nodes, oracle %d", got.Size(), want.Size())
	}
	fork := bdd.NewManagerFrom(got.snap)
	for fp, w := range want.semMem {
		if n := fork.Import(want.snap, w.node); n != got.semMem[fp].node {
			t.Errorf("oracle root %#x imports as node %d, base root is %d", fp, n, got.semMem[fp].node)
		}
	}
	if fork.DeltaSize() != 0 {
		t.Errorf("importing the oracle's roots built %d delta nodes", fork.DeltaSize())
	}
}

// TestParallelBaseGraftOrder: grafts from a semantics source land in
// rank order between the folds, exactly where the serial build put them.
func TestParallelBaseGraftOrder(t *testing.T) {
	matches, lists := parallelBaseInputs(3)
	donor := NewBase(nil, lists[1], lists[4], lists[5])
	src := baseSource{donor: donor}
	want, wantStats := serialBase(src, matches, lists...)
	if wantStats.SemGrafts != 3 || wantStats.SemFolds == 0 {
		t.Fatalf("oracle stats %+v: want 3 grafts among the folds", wantStats)
	}
	for _, fanout := range []int{1, 2, 4} {
		got, stats := newBaseWith(src, fanout, matches, lists)
		assertSameBase(t, "grafted", got, want)
		if stats != wantStats {
			t.Errorf("fan-out %d: stats %+v, want %+v", fanout, stats, wantStats)
		}
	}
}

// TestParallelBaseUnencodableList: a list that fails to encode part-way
// through its fold leaves no node behind and no semantics root.
func TestParallelBaseUnencodableList(t *testing.T) {
	matches, lists := parallelBaseInputs(5)
	bad := append([]rule.Rule(nil), lists[3]...)
	bad[len(bad)/2].Match = rule.Match{VRF: 1, SrcEPG: 2, DstEPG: object.ID(maxID + 1), PortHi: rule.PortMax}
	withBad := append(append([][]rule.Rule(nil), lists[:3]...), bad)
	withBad = append(withBad, lists[4:]...)
	without := append(append([][]rule.Rule(nil), lists[:3]...), lists[4:]...)
	for _, fanout := range []int{1, 2, 4} {
		got, stats := newBaseWith(nil, fanout, matches, withBad)
		want, _ := newBaseWith(nil, fanout, matches, without)
		assertSameBase(t, "unencodable list", got, want)
		if stats.SemFolds != want.NumSemantics() {
			t.Errorf("fan-out %d: %d folds counted, %d roots", fanout, stats.SemFolds, want.NumSemantics())
		}
	}
}
