// Parallel construction over one frozen prefix. Several goroutines each
// fork the same snapshot and build independently; TakeDelta detaches
// what one fork built, and Absorb replays it into a standalone manager
// that already holds the snapshot's nodes (Thaw). Replaying deltas in a
// fixed order interns each function at the ID a single manager doing
// the same work in that order would give it, whichever goroutine built
// it and whenever it finished.

package bdd

// Delta is the node sequence one fork built beyond its snapshot, in
// creation order, detached from the fork's tables by TakeDelta. Every
// node's children precede it (or lie in the snapshot).
type Delta struct {
	baseLen int
	nodes   []nodeData
}

// Thaw returns a standalone, unfrozen manager holding the snapshot's
// nodes at their IDs, ready to extend or Absorb into. The node array
// and unique table are copied slot for slot, with no rehash; the op
// cache starts empty. extra pre-sizes the node array for that many
// more nodes, a hint that only saves regrowth. The snapshot itself is
// untouched and stays safe for concurrent readers.
func (s *Snapshot) Thaw(extra int) *Manager {
	nodes := make([]nodeData, len(s.nodes), len(s.nodes)+max(extra, 0))
	copy(nodes, s.nodes)
	slots := make([]Node, len(s.unique.slots))
	copy(slots, s.unique.slots)
	return &Manager{
		numVars: s.numVars,
		nodes:   nodes,
		unique:  nodeTable{slots: slots, count: s.unique.count},
		cache:   newOpCache(1024),
		pow2:    s.pow2,
	}
}

// TakeDelta detaches the nodes this fork built beyond its snapshot and
// releases the fork's unique table and op cache, so a finished fork
// costs only its delta while it waits to be absorbed. The fork is
// frozen afterwards; any further operation on it panics.
func (m *Manager) TakeDelta() *Delta {
	if m.base == nil {
		panic("bdd: TakeDelta on a standalone manager")
	}
	nodes := m.nodes
	if cap(nodes) > 2*len(nodes) {
		nodes = append([]nodeData(nil), nodes...)
	}
	d := &Delta{baseLen: m.baseLen, nodes: nodes}
	m.nodes, m.unique, m.cache, m.l1 = nil, nodeTable{}, opCache{}, l1Cache{}
	m.frozen = true
	return d
}

// Absorb interns a detached fork delta into m and returns the old→new
// ID remap for the fork's nodes. m must be standalone and hold the
// fork's snapshot as its prefix (a Thaw of it, possibly extended since).
// The sweep runs in creation order, so each node's children are
// remapped before it and no recursion or memo map is needed. A node m
// already interns maps to its existing ID; the rest append in delta
// order.
//
// A node with a child appended by this same sweep cannot already exist
// (its parents would postdate it), so it appends without a unique-table
// lookup; only nodes whose children both predate the sweep are looked
// up. The fork interned its delta canonically, so distinct delta nodes
// never collapse onto one ID.
func (m *Manager) Absorb(d *Delta) *Remap {
	if m.base != nil || m.frozen || len(m.nodes) < d.baseLen {
		panic("bdd: Absorb into a manager that does not hold the delta's snapshot")
	}
	pin := d.baseLen
	fresh := Node(len(m.nodes))
	if need := len(m.nodes) + len(d.nodes); need > cap(m.nodes) {
		nodes := make([]nodeData, len(m.nodes), max(need, 2*cap(m.nodes)))
		copy(nodes, m.nodes)
		m.nodes = nodes
	}
	m.unique.reserve(m.nodes, 0, len(m.nodes)+len(d.nodes))
	remap := make([]Node, len(d.nodes))
	for j, nd := range d.nodes {
		lo, hi := nd.lo, nd.hi
		if int(lo) >= pin {
			lo = remap[int(lo)-pin]
		}
		if int(hi) >= pin {
			hi = remap[int(hi)-pin]
		}
		if lo < fresh && hi < fresh {
			remap[j] = m.mk(nd.level, lo, hi)
			continue
		}
		n := Node(len(m.nodes))
		m.nodes = append(m.nodes, nodeData{level: nd.level, lo: lo, hi: hi})
		m.unique.insert(m.nodes, 0, n)
		remap[j] = n
	}
	return &Remap{pin: pin, delta: remap}
}
