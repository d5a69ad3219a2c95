package equiv

import (
	"fmt"
	"math/rand"
	"testing"

	"scout/internal/bdd"
	"scout/internal/object"
	"scout/internal/rule"
)

// assignBits expands value into a big-endian assignment of width vars
// starting at off (matching the encoders' most-significant-bit-first
// layout).
func assignBits(numVars, off, width int, value uint32) []bool {
	assign := make([]bool, numVars)
	for i := 0; i < width; i++ {
		assign[off+i] = (value>>uint(width-1-i))&1 == 1
	}
	return assign
}

// applyBackend is a Backend that can still build literal cubes, which
// the apply-built oracle encoders below need. Both engines satisfy it.
type applyBackend interface {
	Backend
	Cube(literals map[int]bool) bdd.Node
}

// applyMatchBDD is the apply-built match encoding buildMatchBDD
// replaced, kept as its differential oracle: each field's constraint is
// built on its own out of literal cubes and comparator chains, then
// conjoined onto the match top-down with And.
func applyMatchBDD(m applyBackend, match rule.Match) (bdd.Node, error) {
	n := bdd.True
	if !match.WildcardVRF {
		if match.VRF > maxID {
			return bdd.False, fmt.Errorf("vrf id %d exceeds %d-bit encoding", match.VRF, vrfBits)
		}
		n = m.And(n, equalsBDD(m, vrfOff, vrfBits, uint32(match.VRF)))
	}
	if !match.WildcardSrc {
		if match.SrcEPG > maxID {
			return bdd.False, fmt.Errorf("src epg id %d exceeds %d-bit encoding", match.SrcEPG, epgBits)
		}
		n = m.And(n, equalsBDD(m, srcOff, epgBits, uint32(match.SrcEPG)))
	}
	if !match.WildcardDst {
		if match.DstEPG > maxID {
			return bdd.False, fmt.Errorf("dst epg id %d exceeds %d-bit encoding", match.DstEPG, epgBits)
		}
		n = m.And(n, equalsBDD(m, dstOff, epgBits, uint32(match.DstEPG)))
	}
	if match.Proto != rule.ProtoAny {
		n = m.And(n, equalsBDD(m, protoOff, protoBits, uint32(match.Proto)))
	}
	if !(match.PortLo == 0 && match.PortHi == rule.PortMax) {
		if match.PortLo > match.PortHi {
			return bdd.False, fmt.Errorf("inverted port range %d-%d", match.PortLo, match.PortHi)
		}
		n = m.And(n, rangeBDD(m, portOff, portBits, uint32(match.PortLo), uint32(match.PortHi)))
	}
	return n, nil
}

// equalsBDD encodes field == value over width bits starting at variable
// off (most-significant bit at the lowest variable index).
func equalsBDD(m applyBackend, off, width int, value uint32) bdd.Node {
	lits := make(map[int]bool, width)
	for i := 0; i < width; i++ {
		bit := (value >> uint(width-1-i)) & 1
		lits[off+i] = bit == 1
	}
	return m.Cube(lits)
}

// rangeBDD encodes lo <= field <= hi over width bits starting at off.
func rangeBDD(m applyBackend, off, width int, lo, hi uint32) bdd.Node {
	return m.And(geBDD(m, off, width, 0, lo), leBDD(m, off, width, 0, hi))
}

// leBDD encodes field <= value considering bits [i, width).
func leBDD(m applyBackend, off, width, i int, value uint32) bdd.Node {
	if i == width {
		return bdd.True
	}
	v := m.Var(off + i)
	rest := leBDD(m, off, width, i+1, value)
	if (value>>uint(width-1-i))&1 == 1 {
		// bit set: x_i=0 → anything below; x_i=1 → compare remaining bits
		return m.Or(m.Not(v), m.And(v, rest))
	}
	// bit clear: x_i=1 → greater, fail; x_i=0 → compare remaining bits
	return m.And(m.Not(v), rest)
}

// geBDD encodes field >= value considering bits [i, width).
func geBDD(m applyBackend, off, width, i int, value uint32) bdd.Node {
	if i == width {
		return bdd.True
	}
	v := m.Var(off + i)
	rest := geBDD(m, off, width, i+1, value)
	if (value>>uint(width-1-i))&1 == 1 {
		// bit set: x_i=0 → smaller, fail; x_i=1 → compare remaining bits
		return m.And(v, rest)
	}
	// bit clear: x_i=1 → anything above; x_i=0 → compare remaining bits
	return m.Or(v, m.And(m.Not(v), rest))
}

// engines returns a fresh manager of each kind over numVars variables.
func engines(numVars int) map[string]applyBackend {
	return map[string]applyBackend{
		"manager":   bdd.NewManager(numVars),
		"reference": bdd.NewRefManager(numVars),
	}
}

// TestRangeBDDBruteForce brute-forces the three comparator encoders
// against direct enumeration at small widths: every value of the field
// is evaluated against randomized bounds — including inverted (lo > hi)
// and full ([0, max]) ranges — and must agree with the arithmetic
// predicate.
func TestRangeBDDBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, width := range []int{1, 2, 3, 5, 8} {
		max := uint32(1)<<uint(width) - 1
		m := bdd.NewManager(width)
		// Deterministic edge pairs plus randomized ones.
		pairs := [][2]uint32{
			{0, max},           // full range
			{0, 0}, {max, max}, // single-value extremes
			{max, 0}, // fully inverted
		}
		for i := 0; i < 40; i++ {
			pairs = append(pairs, [2]uint32{rng.Uint32() & max, rng.Uint32() & max})
		}
		for _, p := range pairs {
			lo, hi := p[0], p[1]
			le := leBDD(m, 0, width, 0, hi)
			ge := geBDD(m, 0, width, 0, lo)
			rg := rangeBDD(m, 0, width, lo, hi)
			for v := uint32(0); v <= max; v++ {
				assign := assignBits(width, 0, width, v)
				if got, want := m.Eval(le, assign), v <= hi; got != want {
					t.Fatalf("width=%d leBDD(%d): value %d → %v, want %v", width, hi, v, got, want)
				}
				if got, want := m.Eval(ge, assign), v >= lo; got != want {
					t.Fatalf("width=%d geBDD(%d): value %d → %v, want %v", width, lo, v, got, want)
				}
				if got, want := m.Eval(rg, assign), lo <= v && v <= hi; got != want {
					t.Fatalf("width=%d rangeBDD(%d,%d): value %d → %v, want %v", width, lo, hi, v, got, want)
				}
			}
			// Cross-check the satisfying-assignment count arithmetically
			// (exercises the SatCount powers-of-two table on the same
			// structures the extractor walks).
			wantCount := 0.0
			if lo <= hi {
				wantCount = float64(hi - lo + 1)
			}
			if got := m.SatCount(rg); got != wantCount {
				t.Fatalf("width=%d rangeBDD(%d,%d): SatCount = %v, want %v", width, lo, hi, got, wantCount)
			}
		}
	}
}

// TestRangeBDDAtFieldOffset pins the encoders at a nonzero offset inside
// a wider manager (how the checker actually uses them: the port field
// sits at portOff): bits outside the field must be don't-cares.
func TestRangeBDDAtFieldOffset(t *testing.T) {
	const numVars, off, width = 12, 3, 5
	max := uint32(1)<<width - 1
	m := bdd.NewManager(numVars)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		lo, hi := rng.Uint32()&max, rng.Uint32()&max
		rg := rangeBDD(m, off, width, lo, hi)
		for v := uint32(0); v <= max; v++ {
			assign := assignBits(numVars, off, width, v)
			// Scramble the out-of-field bits; they must not matter.
			for j := 0; j < numVars; j++ {
				if j < off || j >= off+width {
					assign[j] = rng.Intn(2) == 0
				}
			}
			if got, want := m.Eval(rg, assign), lo <= v && v <= hi; got != want {
				t.Fatalf("off=%d rangeBDD(%d,%d): value %d → %v, want %v", off, lo, hi, v, got, want)
			}
		}
	}
}

// TestRangeBruteForce enumerates every lo ≤ hi at widths 1–8, at offset
// 0 and at a nonzero offset, continuing into True and into a
// non-terminal below the block, on both engines. Every field value is
// evaluated with the variables around the block scrambled; the result
// must be the apply-built (range ∧ then) node, and the engines must
// agree on every node ID.
func TestRangeBruteForce(t *testing.T) {
	for _, off := range []int{0, 3} {
		for width := 1; width <= 8; width++ {
			max := uint32(1)<<uint(width) - 1
			numVars := off + width + 2
			below, below2 := off+width, off+width+1
			// One assignment per field value, the bits around the block
			// scrambled.
			rng := rand.New(rand.NewSource(int64(off*100 + width)))
			assigns := make([][]bool, max+1)
			for v := range assigns {
				assigns[v] = assignBits(numVars, off, width, uint32(v))
				noise := rng.Uint64()
				for j := 0; j < off; j++ {
					assigns[v][j] = noise>>uint(j)&1 == 1
				}
				assigns[v][below], assigns[v][below2] = noise>>62&1 == 1, noise>>63&1 == 1
			}
			ids := make(map[string][]bdd.Node)
			for name, m := range engines(numVars) {
				thens := []bdd.Node{bdd.True, m.Xor(m.Var(below), m.Var(below2))}
				var built []bdd.Node
				for ti, then := range thens {
					for lo := uint32(0); lo <= max; lo++ {
						for hi := lo; hi <= max; hi++ {
							got := m.Range(off, width, lo, hi, then)
							built = append(built, got)
							if want := m.And(rangeBDD(m, off, width, lo, hi), then); got != want {
								t.Fatalf("%s off=%d width=%d then#%d: Range(%d,%d) = node %d, apply-built node %d",
									name, off, width, ti, lo, hi, got, want)
							}
							for v, assign := range assigns {
								v := uint32(v)
								thenHolds := then == bdd.True || assign[below] != assign[below2]
								if got, want := m.Eval(got, assign), lo <= v && v <= hi && thenHolds; got != want {
									t.Fatalf("%s off=%d width=%d then#%d: Range(%d,%d) at %d → %v, want %v",
										name, off, width, ti, lo, hi, v, got, want)
								}
							}
						}
					}
				}
				ids[name] = built
			}
			for i, n := range ids["manager"] {
				if ref := ids["reference"][i]; n != ref {
					t.Fatalf("off=%d width=%d: range #%d is node %d on the manager, %d on the reference",
						off, width, i, n, ref)
				}
			}
		}
	}
}

// TestRangeEdgeBounds covers the bounds brute force does not: an empty
// (inverted) range is False, bounds above the field's maximum clamp to
// it, a False continuation stays False, and a fresh 16-bit range
// interns at most 2·width nodes.
func TestRangeEdgeBounds(t *testing.T) {
	for name, m := range engines(20) {
		if got := m.Range(0, 4, 9, 3, bdd.True); got != bdd.False {
			t.Errorf("%s: inverted range = node %d, want False", name, got)
		}
		if got := m.Range(0, 4, 16, 20, bdd.True); got != bdd.False {
			t.Errorf("%s: range above the field's maximum = node %d, want False", name, got)
		}
		if got, want := m.Range(0, 4, 5, 1000, bdd.True), m.Range(0, 4, 5, 15, bdd.True); got != want {
			t.Errorf("%s: hi above the maximum = node %d, want the clamped node %d", name, got, want)
		}
		if got := m.Range(0, 4, 0, 15, bdd.True); got != bdd.True {
			t.Errorf("%s: full range = node %d, want True", name, got)
		}
		if got := m.Range(0, 4, 2, 7, bdd.False); got != bdd.False {
			t.Errorf("%s: range ∧ False = node %d, want False", name, got)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		m := bdd.NewManager(16)
		lo, hi := uint32(rng.Intn(1<<16)), uint32(rng.Intn(1<<16))
		if lo > hi {
			lo, hi = hi, lo
		}
		before := m.Size()
		m.Range(0, 16, lo, hi, bdd.True)
		if grew := m.Size() - before; grew > 2*16 {
			t.Fatalf("Range(%d,%d) interned %d nodes, want at most 32", lo, hi, grew)
		}
	}
}

// randomMatch draws a match mixing exact and wildcard fields, any and
// fixed protocols, and full, single-port, one-sided and partial port
// ranges, over IDs spanning the whole 16-bit field.
func randomMatch(rng *rand.Rand) rule.Match {
	id := func() object.ID {
		if rng.Intn(2) == 0 {
			return object.ID(rng.Intn(16))
		}
		return object.ID(rng.Intn(maxID + 1))
	}
	m := rule.Match{
		VRF: id(), SrcEPG: id(), DstEPG: id(),
		WildcardVRF: rng.Intn(6) == 0,
		WildcardSrc: rng.Intn(4) == 0,
		WildcardDst: rng.Intn(4) == 0,
	}
	if rng.Intn(3) != 0 {
		m.Proto = rule.Protocol(rng.Intn(256))
	}
	a, b := uint16(rng.Intn(rule.PortMax+1)), uint16(rng.Intn(rule.PortMax+1))
	if a > b {
		a, b = b, a
	}
	switch rng.Intn(5) {
	case 0:
		m.PortLo, m.PortHi = 0, rule.PortMax
	case 1:
		m.PortLo, m.PortHi = a, a
	case 2:
		m.PortLo, m.PortHi = 0, b
	case 3:
		m.PortLo, m.PortHi = a, rule.PortMax
	default:
		m.PortLo, m.PortHi = a, b
	}
	return m
}

// TestBuildMatchBDDMatchesApplyOracle asserts that the bottom-up match
// encoding yields the very node the apply-built oracle does, in the same
// manager, for seeded random matches on both engines — and the same
// error, in the same field order, for unencodable ones.
func TestBuildMatchBDDMatchesApplyOracle(t *testing.T) {
	const n = 10000
	for name, m := range engines(NumVars) {
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < n; i++ {
			match := randomMatch(rng)
			// Alternate which side builds first, so neither only ever
			// finds the other's nodes already interned.
			var got, want bdd.Node
			var gotErr, wantErr error
			if i%2 == 0 {
				got, gotErr = buildMatchBDD(m, match)
				want, wantErr = applyMatchBDD(m, match)
			} else {
				want, wantErr = applyMatchBDD(m, match)
				got, gotErr = buildMatchBDD(m, match)
			}
			if gotErr != nil || wantErr != nil {
				t.Fatalf("%s: %+v: errors %v / %v", name, match, gotErr, wantErr)
			}
			if got != want {
				t.Fatalf("%s match #%d %+v: node %d, oracle node %d", name, i, match, got, want)
			}
		}
	}
	bad := []rule.Match{
		{VRF: maxID + 1, SrcEPG: maxID + 1, PortLo: 9, PortHi: 1},
		{VRF: 1, SrcEPG: maxID + 1, DstEPG: maxID + 1, PortLo: 9, PortHi: 1},
		{VRF: 1, WildcardSrc: true, SrcEPG: maxID + 1, DstEPG: maxID + 1},
		{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 9, PortHi: 1},
	}
	m := bdd.NewManager(NumVars)
	for _, match := range bad {
		_, gotErr := buildMatchBDD(m, match)
		_, wantErr := applyMatchBDD(m, match)
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%+v: error %v, oracle error %v", match, gotErr, wantErr)
		}
	}
}
