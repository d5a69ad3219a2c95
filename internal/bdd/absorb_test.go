package bdd

import (
	"math/rand"
	"testing"
)

// absorbJob replays one seeded formula batch on m, the unit a parallel
// build hands each fork.
func absorbJob(m *Manager, seed int64) []Node {
	rng := rand.New(rand.NewSource(seed))
	roots := make([]Node, 8)
	for i := range roots {
		roots[i], _ = randomFormula(m, rng, 5)
	}
	return roots
}

// TestAbsorbMatchesSerialBuild is the parallel-build contract: jobs run
// in private forks of one snapshot, in any order, then absorbed in job
// order into a thawed copy of the snapshot, give node for node the
// manager that runs the same jobs serially in that order.
func TestAbsorbMatchesSerialBuild(t *testing.T) {
	const nVars = 9
	for seed := int64(0); seed < 6; seed++ {
		jobs := []int64{seed*10 + 1, seed*10 + 2, seed*10 + 3, seed*10 + 4}

		serial := NewManager(nVars)
		absorbJob(serial, seed)
		var want [][]Node
		for _, j := range jobs {
			want = append(want, absorbJob(serial, j))
		}

		base := NewManager(nVars)
		absorbJob(base, seed)
		snap := base.Freeze()
		deltas := make([]*Delta, len(jobs))
		roots := make([][]Node, len(jobs))
		for i := len(jobs) - 1; i >= 0; i-- { // fold order is free
			fork := NewManagerFrom(snap)
			roots[i] = absorbJob(fork, jobs[i])
			deltas[i] = fork.TakeDelta()
		}
		final := snap.Thaw(0)
		for i, d := range deltas {
			remap := final.Absorb(d)
			for k, r := range roots[i] {
				if got := remap.Node(r); got != want[i][k] {
					t.Fatalf("seed %d job %d root %d: absorbed node %d, serial node %d", seed, i, k, got, want[i][k])
				}
			}
		}
		got, ref := final.Freeze(), serial.Freeze()
		if got.Size() != ref.Size() {
			t.Fatalf("seed %d: absorbed build has %d nodes, serial %d", seed, got.Size(), ref.Size())
		}
		for i := 0; i < ref.Size(); i++ {
			gl, glo, ghi := got.NodeAt(i)
			wl, wlo, whi := ref.NodeAt(i)
			if gl != wl || glo != wlo || ghi != whi {
				t.Fatalf("seed %d: node %d is (%d,%d,%d), serial (%d,%d,%d)", seed, i, gl, glo, ghi, wl, wlo, whi)
			}
		}
	}
}

// TestThawLeavesSnapshotIntact: a thawed manager extends its own copy;
// forks of the snapshot still see only the frozen prefix.
func TestThawLeavesSnapshotIntact(t *testing.T) {
	m := NewManager(6)
	ab := m.And(m.Var(0), m.Var(1))
	snap := m.Freeze()
	size := snap.Size()
	th := snap.Thaw(0)
	if th.Size() != size || th.And(th.Var(0), th.Var(1)) != ab {
		t.Fatal("thawed manager must hold the snapshot's nodes at their IDs")
	}
	x := th.Xor(th.Var(2), th.Var(3))
	if snap.Contains(x) || snap.Size() != size {
		t.Error("extending a thawed manager must not touch the snapshot")
	}
	if f := NewManagerFrom(snap); f.Xor(f.Var(2), f.Var(3)) != x || f.DeltaSize() == 0 {
		t.Error("a fork rebuilds the thawed manager's new node in its own delta")
	}
}

// TestTakeDeltaFreezesFork: a detached fork refuses further work, and
// Absorb refuses a manager that lacks the delta's snapshot.
func TestTakeDeltaFreezesFork(t *testing.T) {
	m := NewManager(6)
	m.Var(0)
	snap := m.Freeze()
	fork := NewManagerFrom(snap)
	fork.And(fork.Var(1), fork.Var(2))
	d := fork.TakeDelta()
	if len(d.nodes) == 0 {
		t.Fatal("delta must hold the fork's nodes")
	}
	mustPanic(t, "operation on a detached fork", func() { fork.Or(fork.Var(1), fork.Var(3)) })
	mustPanic(t, "TakeDelta on a standalone manager", func() { NewManager(6).TakeDelta() })
	mustPanic(t, "Absorb into a fork", func() { NewManagerFrom(snap).Absorb(d) })
	mustPanic(t, "Absorb into a smaller manager", func() { NewManager(6).Absorb(d) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s must panic", what)
		}
	}()
	fn()
}
