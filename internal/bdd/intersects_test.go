package bdd

import (
	"math/rand"
	"testing"
)

// intersectEngine is the surface the Intersects tests drive on both
// engines.
type intersectEngine interface {
	Cube(literals map[int]bool) Node
	And(a, b Node) Node
	Or(a, b Node) Node
	Intersects(a, b Node) bool
	Size() int
}

// sparsePool replays a seeded script of cubes and their unions and
// conjunctions on e and returns the roots. Cubes of a few literals over
// a dozen variables are mostly pairwise disjoint, so the pool mixes
// disjoint and overlapping pairs in about equal measure. The script
// depends only on the seed, so every engine gets the same node IDs.
func sparsePool(e intersectEngine, seed int64, nVars int) []Node {
	rng := rand.New(rand.NewSource(seed))
	pool := []Node{False, True}
	for i := 0; i < 60; i++ {
		switch rng.Intn(6) {
		case 0, 1:
			pool = append(pool, e.Or(pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]))
		case 2:
			pool = append(pool, e.And(pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]))
		default:
			lits := make(map[int]bool)
			for k := 2 + rng.Intn(4); k > 0; k-- {
				lits[rng.Intn(nVars)] = rng.Intn(2) == 0
			}
			pool = append(pool, e.Cube(lits))
		}
	}
	return pool
}

// intersectEngines builds the pool on a fresh engine of each kind: a
// standalone manager, a fork whose base holds the pool (so the walk
// consults the frozen base cache tier), and the reference.
func intersectEngines(seed int64, nVars int) map[string]func() (intersectEngine, []Node) {
	return map[string]func() (intersectEngine, []Node){
		"manager": func() (intersectEngine, []Node) {
			m := NewManager(nVars)
			return m, sparsePool(m, seed, nVars)
		},
		"fork": func() (intersectEngine, []Node) {
			m := NewManager(nVars)
			pool := sparsePool(m, seed, nVars)
			return NewManagerFrom(m.Freeze()), pool
		},
		"reference": func() (intersectEngine, []Node) {
			m := NewRefManager(nVars)
			return m, sparsePool(m, seed, nVars)
		},
	}
}

// TestIntersectsMatchesAnd: Intersects answers exactly And != False on
// every pair of a seeded pool, on both engines, and never adds a node.
func TestIntersectsMatchesAnd(t *testing.T) {
	const nVars = 12
	for seed := int64(0); seed < 6; seed++ {
		for name, build := range intersectEngines(seed, nVars) {
			oracle, pool := build()
			e, _ := build()
			size := e.Size()
			disjoint := 0
			for _, a := range pool {
				for _, b := range pool {
					want := oracle.And(a, b) != False
					if got := e.Intersects(a, b); got != want {
						t.Fatalf("%s seed %d: Intersects(%d, %d) = %v, And says %v", name, seed, a, b, got, want)
					}
					if !want {
						disjoint++
					}
				}
			}
			if e.Size() != size {
				t.Errorf("%s seed %d: Intersects grew Size from %d to %d", name, seed, size, e.Size())
			}
			if disjoint == 0 || disjoint == len(pool)*len(pool) {
				t.Errorf("%s seed %d: pool has %d disjoint pairs of %d, want a mix", name, seed, disjoint, len(pool)*len(pool))
			}
		}
	}
}

// TestIntersectsKeepsAndIdentity: the And → False entries Intersects
// memoizes are exact, so And afterwards returns the node IDs a fresh
// engine returns, and builds the same number of nodes.
func TestIntersectsKeepsAndIdentity(t *testing.T) {
	const nVars = 12
	for seed := int64(0); seed < 6; seed++ {
		for name, build := range intersectEngines(seed, nVars) {
			fresh, pool := build()
			e, _ := build()
			for _, a := range pool {
				for _, b := range pool {
					e.Intersects(a, b)
				}
			}
			for _, a := range pool {
				for _, b := range pool {
					if got, want := e.And(a, b), fresh.And(a, b); got != want {
						t.Fatalf("%s seed %d: And(%d, %d) = %d after Intersects, %d fresh", name, seed, a, b, got, want)
					}
				}
			}
			if e.Size() != fresh.Size() {
				t.Errorf("%s seed %d: Size %d after Intersects, %d fresh", name, seed, e.Size(), fresh.Size())
			}
		}
	}
}

// TestIntersectsFrozenPanics: like every boolean operation, Intersects
// may write the op cache, so a frozen manager refuses it.
func TestIntersectsFrozenPanics(t *testing.T) {
	m := NewManager(4)
	a := m.Var(0)
	m.Freeze()
	defer func() {
		if recover() == nil {
			t.Error("Intersects on a frozen manager must panic")
		}
	}()
	m.Intersects(a, a)
}
