package core_test

import (
	"fmt"
	"testing"

	"ssi/internal/core"
	"ssi/internal/lock"
)

// TestInFlightRivalOutlivesRetirement: a transaction keeps the records its
// lock requests return as rivals for as long as it uses them. Here that is W,
// which has no snapshot yet, as a GetForUpdate has none before its deferred
// snapshot: its Exclusive request returns T, which holds an SIREAD lock. T
// then commits, is retired at once (no snapshot is older than its commit),
// so the retire hook releases its lock, and is released by the engine. T must
// not be recycled while W runs, for W may still read it or mark a conflict
// with it; once W has ended, T comes back from BeginTx — unless W did mark
// the conflict, for then a reference names T and it never comes back.
func TestInFlightRivalOutlivesRetirement(t *testing.T) {
	for _, marked := range []bool{false, true} {
		t.Run(fmt.Sprintf("marked=%v", marked), func(t *testing.T) {
			m := core.NewManager(core.DetectorPrecise)
			locks := lock.NewManagerShards(true, 8)
			m.SetRetireHook(func(batch []core.Retired) {
				for _, r := range batch {
					locks.ReleaseAll(r.Txn)
				}
			})
			// comesBack reports whether one of the next few begins, held
			// together so that each draws a different record and then ended
			// unseen and released again, is handed rec.
			comesBack := func(rec *core.Txn) bool {
				var drawn [8]*core.Txn
				back := false
				for i := range drawn {
					drawn[i] = m.Begin(core.SnapshotIsolation)
					back = back || drawn[i] == rec
				}
				for _, n := range drawn {
					m.Abort(n)
					m.Release(n)
				}
				return back
			}
			// A pool may miss (and drops puts at random under the race
			// detector), so repeat until the record comes back. Each round
			// locks a key of its own, so that a failed round leaves no lock
			// in a later one's way.
			for round := 0; round < 100; round++ {
				key := lock.RowKey("t", []byte(fmt.Sprint(round)))
				rival := m.Begin(core.SerializableSI)
				m.AssignSnapshot(rival)
				if _, err := locks.AcquireInto(rival, key, lock.SIRead, nil); err != nil {
					t.Fatal(err)
				}
				w := m.Begin(core.SerializableSI)
				rivals, err := locks.AcquireInto(w, key, lock.Exclusive, nil)
				if err != nil || len(rivals) != 1 || rivals[0] != rival {
					t.Fatalf("W's Exclusive request: rivals %v, %v; want the SIREAD holder", rivals, err)
				}
				if w.Snapshot() != 0 {
					t.Fatal("W took a snapshot")
				}

				id := rival.ID()
				ct, err := m.CommitPrepare(rival)
				if err != nil {
					t.Fatal(err)
				}
				locks.ReleaseBlocking(rival)
				m.Finish(rival, true)
				m.Release(rival)
				if st := m.StatsSnapshot(); st.Suspended != 0 || st.Limbo != 1 || locks.HoldsSIRead(rival) {
					t.Fatalf("round %d: the rival is not retired and released: %+v, SIREAD held %v", round, st, locks.HoldsSIRead(rival))
				}
				if comesBack(rival) {
					t.Fatalf("round %d: the rival came back from the pool while W, which holds it, still ran", round)
				}
				if got := rivals[0]; got.ID() != id || got.CommitTS() != ct || !got.Committed() {
					t.Fatalf("round %d: W's rival now reads id %d, commit %d, %v; want %d, %d, committed", round, got.ID(), got.CommitTS(), got.Status(), id, ct)
				}
				if marked {
					if err := m.MarkConflict(rivals[0], w, w); err != nil {
						t.Fatal(err)
					}
				}
				m.Abort(w)
				locks.ReleaseAll(w)
				m.Release(w)

				back := comesBack(rival)
				switch {
				case back && marked:
					t.Fatalf("round %d: the rival came back although W's reference names it", round)
				case back:
					return
				case marked && round == 19:
					return
				}
			}
			t.Fatal("the rival never came back from the pool once W had ended")
		})
	}
}
