// Base persistence and cross-deployment sharing: the introspection
// surface the durable warm-state store serializes a Base through, the
// reconstruction path that revives one from decoded parts, and the
// SemanticsSource hook that lets a base under construction graft frozen
// whole-switch semantics roots out of other deployments' bases instead
// of folding them privately — PR 5's fingerprint-keyed semantics dedup
// generalized across deployments, with the same canonical-list
// verification so a 64-bit collision degrades to a private fold, never
// a wrong root.

package equiv

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"scout/internal/bdd"
	"scout/internal/rule"
)

// SemanticsSource resolves frozen whole-switch semantics roots built
// elsewhere in the process — the cross-deployment registry implements
// it. ResolveSemantics returns the donor snapshot and the root node of
// the allowed-set BDD for a rule list canonically equal to rules (the
// implementation MUST verify with SemanticsEqual before answering, so
// fingerprint collisions are filtered at the source), or ok == false to
// make the caller fold privately. Implementations must be safe for
// concurrent use: bases for different deployments build concurrently.
type SemanticsSource interface {
	ResolveSemantics(fp uint64, rules []rule.Rule) (snap *bdd.Snapshot, root bdd.Node, ok bool)
}

// BaseBuildStats counts where a base's whole-switch semantics roots
// came from: grafted out of another deployment's frozen base through a
// SemanticsSource, or folded here. Grafts + Folds = distinct semantics
// entries built.
type BaseBuildStats struct {
	SemGrafts int
	SemFolds  int
}

// NewBaseWith is NewBase with a cross-deployment semantics source: each
// distinct rule list is first looked up in src (verified canonical-list
// hit → the donor's frozen BDD is imported node-for-node through the
// manager's unique table, a pure structural copy that skips the whole
// priority fold), and only source misses fold locally. A nil src makes
// it exactly NewBase.
//
// The build runs in three steps. The matches are encoded into one
// manager and frozen into a match snapshot. Each list to fold then
// folds in its own fork of that snapshot, on a pool of
// min(GOMAXPROCS, lists) goroutines. Last, a thawed copy of the match
// snapshot takes each list in rank order: a graft imports the donor
// root, a fold absorbs its fork's delta. A fork's delta is exactly its
// list's fold, so every node gets the ID a serial build in rank order
// gives it, and the frozen base is the same however many goroutines
// folded or in which order they finished. The forks' op-cache entries
// are dropped with the forks, so the base's op cache holds no fold
// results. A list that fails to encode leaves no node behind.
func NewBaseWith(src SemanticsSource, matches []rule.Match, semantics ...[]rule.Rule) (*Base, BaseBuildStats) {
	return newBaseWith(src, runtime.GOMAXPROCS(0), matches, semantics)
}

// baseList is one distinct rule list of a base build, in rank order:
// grafted from a donor snapshot's root, or folded in a fork.
type baseList struct {
	fp    uint64
	rules []rule.Rule
	donor *bdd.Snapshot // nil when folded
	root  bdd.Node
	fold  *listFold
}

// listFold is one list's fold in its own fork of the match snapshot,
// detached from the fork once done closes.
type listFold struct {
	rules []rule.Rule
	done  chan struct{}
	delta *bdd.Delta
	root  bdd.Node
	// extra holds the matches the list uses that the match snapshot
	// lacks, encoded in the fork.
	extra map[rule.Match]bdd.Node
	err   error
}

// foldNodesPerRule pre-sizes a list's fork: a whole-list fold interns
// about 46 delta nodes per rule on generated fabrics. An underestimate
// only costs the fork its growth ramp.
const foldNodesPerRule = 48

// run folds the list in a fresh fork of snap, resolving matches through
// mem first.
func (f *listFold) run(snap *bdd.Snapshot, mem map[rule.Match]bdd.Node) {
	fork := bdd.NewManagerFromSized(snap, foldNodesPerRule*len(f.rules))
	f.extra = make(map[rule.Match]bdd.Node)
	encode := func(match rule.Match) (bdd.Node, error) {
		if n, ok := mem[match]; ok {
			return n, nil
		}
		if n, ok := f.extra[match]; ok {
			return n, nil
		}
		n, err := buildMatchBDD(fork, match)
		if err != nil {
			return bdd.False, err
		}
		f.extra[match] = n
		return n, nil
	}
	f.root, f.err = foldSemantics(fork, encode, f.rules)
	f.delta = fork.TakeDelta()
	close(f.done)
}

// newBaseWith is NewBaseWith with an explicit fold fan-out.
func newBaseWith(src SemanticsSource, fanout int, matches []rule.Match, semantics [][]rule.Rule) (*Base, BaseBuildStats) {
	var stats BaseBuildStats
	m := bdd.NewManager(NumVars)
	mem := make(map[rule.Match]bdd.Node, len(matches))
	for _, match := range matches {
		if _, ok := mem[match]; ok {
			continue
		}
		// Unencodable matches are skipped: the base is a cache.
		if n, err := buildMatchBDD(m, match); err == nil {
			mem[match] = n
		}
	}
	snap := m.Freeze()

	lists := make([]baseList, 0, len(semantics))
	seen := make(map[uint64]struct{}, len(semantics))
	var folds []*listFold
	for _, rules := range semantics {
		fp := SemanticsFingerprint(rules)
		if _, ok := seen[fp]; ok {
			// Duplicate list, or — vanishingly rarely — a colliding one;
			// either way the first owner keeps the slot and a colliding
			// list simply folds in the forks (hits verify the list).
			continue
		}
		seen[fp] = struct{}{}
		l := baseList{fp: fp, rules: rules}
		if src != nil {
			l.donor, l.root, _ = src.ResolveSemantics(fp, rules)
		}
		if l.donor == nil {
			l.fold = &listFold{rules: rules, done: make(chan struct{})}
			folds = append(folds, l.fold)
		}
		lists = append(lists, l)
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < min(max(fanout, 1), len(folds)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(folds); i = int(next.Add(1)) - 1 {
				folds[i].run(snap, mem)
			}
		}()
	}

	// Absorb in rank order as the completed prefix grows, releasing each
	// fold's delta once absorbed. Matches the folds encoded privately
	// join the match memo only after the workers, which read it, exit.
	estimate := 0
	for _, f := range folds {
		estimate += foldNodesPerRule * len(f.rules)
	}
	final := snap.Thaw(estimate)
	extra := make(map[rule.Match]bdd.Node)
	semMem := make(map[uint64]semRoot, len(lists))
	for _, l := range lists {
		if l.fold == nil {
			semMem[l.fp] = semRoot{rules: l.rules, node: final.Import(l.donor, l.root)}
			stats.SemGrafts++
			continue
		}
		f := l.fold
		<-f.done
		if f.err == nil {
			remap := final.Absorb(f.delta)
			for match, n := range f.extra {
				if _, ok := extra[match]; !ok {
					extra[match] = remap.Node(n)
				}
			}
			semMem[l.fp] = semRoot{rules: l.rules, node: remap.Node(f.root)}
			stats.SemFolds++
		}
		f.delta, f.extra = nil, nil
	}
	wg.Wait()
	for match, n := range extra {
		mem[match] = n
	}
	return &Base{snap: final.Freeze(), matchMem: mem, semMem: semMem}, stats
}

// Snapshot returns the base's frozen BDD snapshot (safe for concurrent
// reads; the store's codec walks its node array through NodeAt).
func (b *Base) Snapshot() *bdd.Snapshot { return b.snap }

// ForEachMatch visits every warmed match encoding in canonical
// (SortMatches) order — the deterministic iteration the codec needs to
// produce byte-reproducible files from one base.
func (b *Base) ForEachMatch(fn func(m rule.Match, n bdd.Node)) {
	matches := make([]rule.Match, 0, len(b.matchMem))
	for m := range b.matchMem {
		matches = append(matches, m)
	}
	SortMatches(matches)
	for _, m := range matches {
		fn(m, b.matchMem[m])
	}
}

// ForEachSemantics visits every frozen whole-switch semantics entry —
// its fingerprint key, canonical rule list, and root — in ascending
// fingerprint order (deterministic for the codec, like ForEachMatch).
func (b *Base) ForEachSemantics(fn func(fp uint64, rules []rule.Rule, root bdd.Node)) {
	fps := make([]uint64, 0, len(b.semMem))
	for fp := range b.semMem {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	for _, fp := range fps {
		e := b.semMem[fp]
		fn(fp, e.rules, e.node)
	}
}

// MatchEntry is one decoded match-memo binding for RebuildBase.
type MatchEntry struct {
	Match rule.Match
	Node  bdd.Node
}

// SemEntry is one decoded semantics-memo binding for RebuildBase: the
// canonical rule list and its frozen root. The fingerprint key is not
// part of the entry — RebuildBase recomputes it from the list, so a
// corrupted or stale key in a file can never misfile an entry.
type SemEntry struct {
	Rules []rule.Rule
	Node  bdd.Node
}

// RebuildBase reassembles a Base from a rebuilt snapshot and decoded
// memo entries — the load half of the store's base codec. Every node
// must live in the snapshot and entries must not collide (duplicate
// matches, or rule lists sharing a semantics fingerprint, cannot come
// from a well-formed encode and are rejected as corruption).
func RebuildBase(snap *bdd.Snapshot, matches []MatchEntry, semantics []SemEntry) (*Base, error) {
	if snap.NumVars() != NumVars {
		return nil, fmt.Errorf("equiv: rebuild base: snapshot has %d vars, want %d", snap.NumVars(), NumVars)
	}
	mem := make(map[rule.Match]bdd.Node, len(matches))
	for _, e := range matches {
		if !snap.Contains(e.Node) {
			return nil, fmt.Errorf("equiv: rebuild base: match node %d outside snapshot", e.Node)
		}
		if _, dup := mem[e.Match]; dup {
			return nil, fmt.Errorf("equiv: rebuild base: duplicate match entry")
		}
		mem[e.Match] = e.Node
	}
	semMem := make(map[uint64]semRoot, len(semantics))
	for _, e := range semantics {
		if !snap.Contains(e.Node) {
			return nil, fmt.Errorf("equiv: rebuild base: semantics node %d outside snapshot", e.Node)
		}
		fp := SemanticsFingerprint(e.Rules)
		if _, dup := semMem[fp]; dup {
			return nil, fmt.Errorf("equiv: rebuild base: duplicate semantics fingerprint %#x", fp)
		}
		semMem[fp] = semRoot{rules: e.Rules, node: e.Node}
	}
	return &Base{snap: snap, matchMem: mem, semMem: semMem}, nil
}
