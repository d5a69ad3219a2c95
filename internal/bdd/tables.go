// Open-addressed hash tables backing the manager's hot path. The Go maps
// they replace (map[nodeKey]Node, map[opKey]Node) dominated per-mk cost:
// hashing a 12-byte struct key through the runtime's generic hasher,
// bucket chasing, and a fresh allocation on every ClearCache. Both tables
// here pack their keys into machine words, hash with a xorshift-multiply
// mix, probe linearly over power-of-two slot arrays, and never need
// tombstones (entries are only ever inserted; bulk removal happens by
// rebuilding, bulk clearing by bumping a generation counter).
//
// Node IDs are non-negative int32s, so a (level, lo, hi) triple packs
// into two 64-bit words and an (op, a, b) operation key into one: op
// needs 2 bits and each operand 31, exactly filling a word. Valid op
// keys are never zero (op kinds start at 1), which both tables exploit
// for cheap empty-slot checks.

package bdd

// hashMix is a xorshift-multiply finalizer (the splitmix64/murmur3 tail):
// every input bit avalanches into the slot index, which linear probing
// needs to keep runs short.
func hashMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 32
	return x
}

// hashNode hashes an interning key. lo and hi fill one word, the level
// perturbs via a second mix round.
func hashNode(level int32, lo, hi Node) uint64 {
	return hashMix(uint64(uint32(lo))<<32 | uint64(uint32(hi)) + uint64(uint32(level))*0xbf58476d1ce4e5b9)
}

// pow2Slots rounds a desired entry count up to a power-of-two slot count
// with room to stay under the ~3/4 load-factor growth trigger.
func pow2Slots(entries int) int {
	c := 16
	for c*3 < entries*4 {
		c <<= 1
	}
	return c
}

// nodeTable is the unique (interning) table: it maps (level, lo, hi) to
// the node's ID without storing the triple at all — each slot holds just
// the node ID, and probes compare against the node array itself (the
// nodes slice is the struct-of-arrays ground truth; the table is a dense
// int32 index over it). Slot value 0 means empty: the terminals are
// pre-allocated and never interned, so no stored ID is ever 0.
//
// A frozen table is read-only and therefore safe for concurrent lookups
// (the shared-base snapshot contract).
type nodeTable struct {
	slots []Node
	count int
}

func newNodeTable(entries int) nodeTable {
	return nodeTable{slots: make([]Node, pow2Slots(entries))}
}

// lookup returns the ID interned for (level, lo, hi), or 0. Stored IDs
// index nodes at offset -off (a fork's delta table stores absolute IDs
// but owns only the delta slice).
func (t *nodeTable) lookup(nodes []nodeData, off int, level int32, lo, hi Node) Node {
	mask := uint64(len(t.slots) - 1)
	for i := hashNode(level, lo, hi) & mask; ; i = (i + 1) & mask {
		id := t.slots[i]
		if id == 0 {
			return 0
		}
		if d := &nodes[int(id)-off]; d.level == level && d.lo == lo && d.hi == hi {
			return id
		}
	}
}

// insert adds a freshly interned node's ID. The caller guarantees the
// key is absent (mk looks up first), so probing stops at the first empty
// slot. Growth rebuilds the slot array from the node data — tombstone
// free, since nothing is ever individually deleted.
func (t *nodeTable) insert(nodes []nodeData, off int, id Node) {
	if (t.count+1)*4 > len(t.slots)*3 {
		t.grow(nodes, off)
	}
	d := &nodes[int(id)-off]
	mask := uint64(len(t.slots) - 1)
	i := hashNode(d.level, d.lo, d.hi) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = id
	t.count++
}

func (t *nodeTable) grow(nodes []nodeData, off int) {
	t.rehash(nodes, off, len(t.slots)*2)
}

// reserve grows the table, at most once, so that it holds the given
// number of entries under the load-factor trigger: a caller about to
// insert a known number of nodes rehashes once instead of at every
// doubling on the way.
func (t *nodeTable) reserve(nodes []nodeData, off int, entries int) {
	if slots := pow2Slots(entries); slots > len(t.slots) {
		t.rehash(nodes, off, slots)
	}
}

func (t *nodeTable) rehash(nodes []nodeData, off int, slots int) {
	old := t.slots
	t.slots = make([]Node, slots)
	mask := uint64(len(t.slots) - 1)
	for _, id := range old {
		if id == 0 {
			continue
		}
		d := &nodes[int(id)-off]
		i := hashNode(d.level, d.lo, d.hi) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = id
	}
}

// packOpKey packs an operation-cache key into one word: op kind in bits
// 0-1, operand a in bits 2-32, operand b in bits 33-63. Node IDs are
// non-negative int32s (31 bits), so the packing is exact and injective,
// and no valid key is 0 (op kinds start at 1).
func packOpKey(op opKind, a, b Node) uint64 {
	return uint64(op) | uint64(uint32(a))<<2 | uint64(uint32(b))<<33
}

// unpackOpKey inverts packOpKey (compaction rewrites live entries).
func unpackOpKey(k uint64) (op opKind, a, b Node) {
	return opKind(k & 3), Node(k >> 2 & 0x7fffffff), Node(k >> 33)
}

// opEntry is one memoized operation. gen stamps the generation the entry
// was written in: entries from older generations are logically absent,
// which is what makes clearing O(1).
type opEntry struct {
	key uint64
	val Node
	gen uint32
}

// opCache is the exact (L2) operation cache: open-addressed, packed
// one-word keys, generation-stamped entries. Unlike the direct-mapped L1
// it never evicts within a generation, so memoization is exactly as
// complete as the map it replaced — node construction counts cannot
// drift. A frozen opCache (inside a Snapshot) is read-only and safe for
// concurrent lookups.
type opCache struct {
	entries []opEntry
	count   int
	// gen is the current generation; entries stamped differently are
	// stale. Starts at 1 so zero-initialized slots are always stale.
	gen uint32
}

func newOpCache(entries int) opCache {
	return opCache{entries: make([]opEntry, pow2Slots(entries)), gen: 1}
}

func (c *opCache) lookup(k uint64) (Node, bool) {
	mask := uint64(len(c.entries) - 1)
	for i := hashMix(k) & mask; ; i = (i + 1) & mask {
		e := &c.entries[i]
		if e.gen != c.gen {
			return 0, false
		}
		if e.key == k {
			return e.val, true
		}
	}
}

// insert memoizes k → v. Stale slots (older generations) count as empty
// and are overwritten in place; within one generation nothing is ever
// deleted, so probe chains stay intact.
func (c *opCache) insert(k uint64, v Node) {
	if (c.count+1)*4 > len(c.entries)*3 {
		c.grow()
	}
	mask := uint64(len(c.entries) - 1)
	for i := hashMix(k) & mask; ; i = (i + 1) & mask {
		e := &c.entries[i]
		if e.gen != c.gen {
			*e = opEntry{key: k, val: v, gen: c.gen}
			c.count++
			return
		}
		if e.key == k {
			e.val = v
			return
		}
	}
}

func (c *opCache) grow() {
	old := c.entries
	oldGen := c.gen
	c.entries = make([]opEntry, 2*len(old))
	c.count = 0
	for i := range old {
		if old[i].gen == oldGen {
			c.insert(old[i].key, old[i].val)
		}
	}
}

// clear empties the cache without touching (or allocating) the entry
// array: one generation bump. On the astronomically rare wrap-around the
// array is zeroed so ancient entries cannot alias the reused stamp.
func (c *opCache) clear() {
	c.count = 0
	c.gen++
	if c.gen == 0 {
		for i := range c.entries {
			c.entries[i] = opEntry{}
		}
		c.gen = 1
	}
}

// l1Bits sizes the direct-mapped L1 op cache: 1<<l1Bits entries (64 KiB
// of opEntry), small enough to stay cache-resident, large enough to
// absorb the tight re-reference runs apply produces.
const l1Bits = 12

// l1Cache is the direct-mapped first-tier op cache: one slot per hash
// bucket, overwrite on collision, generation-stamped like the exact
// table so clearing is O(1). It exists to answer the highly repetitive
// lookups of cofactor recursion in one predictable load before the
// probing L2 (or the frozen base cache) is consulted. Purely a
// performance tier: every entry it holds is also in the L2/base cache,
// so eviction can never change what gets memoized.
type l1Cache struct {
	entries []opEntry // nil until the first store
	gen     uint32
}

func (c *l1Cache) lookup(k uint64) (Node, bool) {
	if c.entries == nil {
		return 0, false
	}
	e := &c.entries[hashMix(k)&(1<<l1Bits-1)]
	if e.gen == c.gen && e.key == k {
		return e.val, true
	}
	return 0, false
}

func (c *l1Cache) store(k uint64, v Node) {
	if c.entries == nil {
		c.entries = make([]opEntry, 1<<l1Bits)
		c.gen = 1
	}
	c.entries[hashMix(k)&(1<<l1Bits-1)] = opEntry{key: k, val: v, gen: c.gen}
}

func (c *l1Cache) clear() {
	c.gen++
	if c.gen == 0 {
		for i := range c.entries {
			c.entries[i] = opEntry{}
		}
		c.gen = 1
	}
}
