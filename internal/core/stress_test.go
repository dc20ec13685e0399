package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConflictCoreStress hammers the per-transaction conflict state from
// many goroutines at once: overlapping transactions mark rw-edges against
// each other (in both roles), probe AbortEarly before every operation,
// commit through CommitPrepare/Finish with suspension on, and abort on any
// unsafe verdict — exactly the interleaving surface the global csMu used to
// serialize. Under -race this checks the pairwise-mutex protocol's memory
// discipline (atomic in/out loads against mutex-held stores); the final
// census checks that no abort/deregister/suspend path leaks bookkeeping.
func TestConflictCoreStress(t *testing.T) {
	for _, det := range []Detector{DetectorBasic, DetectorPrecise} {
		det := det
		name := map[Detector]string{DetectorBasic: "basic", DetectorPrecise: "precise"}[det]
		t.Run(name, func(t *testing.T) {
			m := NewManager(det)

			const workers = 8
			iters := 2000
			if testing.Short() {
				iters = 300
			}

			// The partner pool: each worker publishes its current active
			// transaction so others can mark conflicts against it while it
			// runs — committed-and-suspended partners stay reachable through
			// stale reads of the slots, exercising the suspended paths too.
			var pool [workers]atomic.Pointer[Txn]

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)*2654435761 + 1))
					for i := 0; i < iters; i++ {
						txn := m.Begin(SerializableSI)
						m.AssignSnapshot(txn)
						pool[w].Store(txn)

						aborted := false
						for op := 0; op < 4; op++ {
							if err := m.AbortEarly(txn); err != nil {
								// AbortEarly already marked txn aborted and
								// deregistered it; Abort is the idempotent
								// cleanup the engine would run.
								m.Abort(txn)
								aborted = true
								break
							}
							other := pool[r.Intn(workers)].Load()
							if other == nil || other == txn {
								continue
							}
							var err error
							if r.Intn(2) == 0 {
								err = m.MarkConflict(txn, other, txn) // txn reads, other wrote
							} else {
								err = m.MarkConflict(other, txn, txn) // other read, txn writes
							}
							if err != nil {
								m.Abort(txn)
								aborted = true
								break
							}
						}
						if aborted {
							continue
						}
						if r.Intn(8) == 0 {
							m.Abort(txn) // application rollback
							continue
						}
						if _, err := m.CommitPrepare(txn); err != nil {
							m.Abort(txn)
							continue
						}
						m.Finish(txn, r.Intn(2) == 0)
					}
					pool[w].Store(nil)
				}(w)
			}
			wg.Wait()

			// Quiesce: one last clean transaction end makes the final sweep
			// observe an empty registry and drain the suspended list.
			last := m.Begin(SerializableSI)
			m.AssignSnapshot(last)
			if _, err := m.CommitPrepare(last); err != nil {
				t.Fatalf("quiescing commit: %v", err)
			}
			m.Finish(last, false)

			st := m.StatsSnapshot()
			if st.Active != 0 {
				t.Fatalf("leaked %d active transactions", st.Active)
			}
			if st.Suspended != 0 {
				t.Fatalf("leaked %d suspended transactions", st.Suspended)
			}
		})
	}
}

// pivotUnsafe is the pivot's own dangerous-structure test, under its conflict
// mutex: what a check of t would decide now.
func pivotUnsafe(m *Manager, t *Txn) bool {
	t.csMu.Lock()
	defer t.csMu.Unlock()
	return m.dangerous(t, t.in.Load(), t.out.Load())
}

// TestMarkConflictCommitRace pins the correctness crux of the lock-free
// conflict core: an edge installed concurrently with the pivot's commit must
// be observed by MarkConflict (which then sees a committed pivot) or by
// CommitPrepare's check — never by neither. The dangerous structure
// tin -rw-> pivot -rw-> tout is assembled with the pivot's incoming edge
// racing its commit; whatever the interleaving, it must be impossible for
// the pivot to commit AND a later structure check on it to report unsafe
// without anyone having been told to abort.
func TestMarkConflictCommitRace(t *testing.T) {
	for _, det := range []Detector{DetectorBasic, DetectorPrecise} {
		det := det
		name := map[Detector]string{DetectorBasic: "basic", DetectorPrecise: "precise"}[det]
		t.Run(name, func(t *testing.T) {
			iters := 3000
			if testing.Short() {
				iters = 500
			}
			for i := 0; i < iters; i++ {
				m := NewManager(det)
				tin := m.Begin(SerializableSI)
				pivot := m.Begin(SerializableSI)
				tout := m.Begin(SerializableSI)
				for _, txn := range []*Txn{tin, pivot, tout} {
					m.AssignSnapshot(txn)
				}
				// The outgoing half of the structure exists; tout commits,
				// making the structure dangerous once the incoming edge
				// lands (tout committed first).
				if err := m.MarkConflict(pivot, tout, pivot); err != nil {
					t.Fatal(err)
				}
				if _, err := m.CommitPrepare(tout); err != nil {
					t.Fatal(err)
				}
				m.Finish(tout, true)

				var markErr, commitErr error
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					markErr = m.MarkConflict(tin, pivot, tin)
				}()
				go func() {
					defer wg.Done()
					_, commitErr = m.CommitPrepare(pivot)
				}()
				wg.Wait()

				committed := commitErr == nil
				if committed && markErr == nil && pivotUnsafe(m, pivot) {
					// The pivot committed, the edge install went through
					// unchallenged, yet the full structure is in place:
					// both checks missed the race.
					t.Fatalf("iter %d: pivot committed with a dangerous structure and nobody aborted", i)
				}
				if committed {
					m.Finish(pivot, true)
				} else {
					m.Abort(pivot)
				}
				m.Abort(tin)
			}
		})
	}
}

// TestCounterpartCommitRace pins the commit-ordering invariant of the
// Figure 3.10 commit-time check (package comment, invariant 3): with the
// full structure tin -rw-> pivot -rw-> tout already installed and all three
// transactions still active, the pivot's CommitPrepare races both
// counterparts' commits, tout first. An identified Tout that is still
// uncommitted cannot have committed first, so the pivot is allowed to
// commit — but only by winning the stamp race: if tout's timestamp is
// below the pivot's, the structure has Tout-committed-first and the pivot
// must have aborted. The dangerous interleaving is tout committing in the
// window between the pivot's look at it and its stamp; evaluating the
// structure under tsMu, in stampIfSafe, closes exactly that window, and this
// test exists to catch it reopening.
//
// Tin here is a writer, and has the creator cell the engine would have given
// it; the read-only twin below leaves it out.
func TestCounterpartCommitRace(t *testing.T) {
	counterpartCommitRace(t, true, func(i int, pivotCT, toutCT, tinCT TS) {
		if toutCT != 0 && toutCT < pivotCT {
			t.Fatalf("iter %d: pivot committed at %d inside a dangerous structure whose Tout committed first at %d", i, pivotCT, toutCT)
		}
	})
}

// TestCounterpartCommitRaceReadOnlyTin is the same race with a Tin that
// writes nothing and commits undeclared, after tout. Its snapshot precedes
// tout's commit, so by the read-only rule the structure is harmless — once
// Tin is known to be read-only, which is when it has committed without a
// cell. The pivot may therefore commit behind a Tout that committed first,
// but only if Tin's stamp preceded its own: a Tin still running when the
// verdict fell (the tsMu pass is the final one) may yet have written, and the
// pivot must have aborted. Under -race this also checks that reading a
// committed counterpart's cell field needs no lock.
func TestCounterpartCommitRaceReadOnlyTin(t *testing.T) {
	spared := 0
	counterpartCommitRace(t, false, func(i int, pivotCT, toutCT, tinCT TS) {
		if toutCT == 0 || toutCT > pivotCT {
			return
		}
		if tinCT == 0 || tinCT > pivotCT {
			t.Fatalf("iter %d: pivot committed at %d behind Tout (%d) while Tin (commit %d) could still have written", i, pivotCT, toutCT, tinCT)
		}
		spared++
	})
	t.Logf("pivots the read-only rule spared: %d", spared)
}

// counterpartCommitRace runs the race and hands check the three commit
// timestamps (0: did not commit) of every iteration whose pivot committed.
func counterpartCommitRace(t *testing.T, tinWrites bool, check func(i int, pivotCT, toutCT, tinCT TS)) {
	iters := 5000
	if testing.Short() {
		iters = 500
	}
	for i := 0; i < iters; i++ {
		m := NewManager(DetectorPrecise)
		tin := m.Begin(SerializableSI)
		pivot := m.Begin(SerializableSI)
		tout := m.Begin(SerializableSI)
		for _, txn := range []*Txn{tin, pivot, tout} {
			m.AssignSnapshot(txn)
		}
		if err := m.MarkConflict(tin, pivot, tin); err != nil {
			t.Fatal(err)
		}
		if err := m.MarkConflict(pivot, tout, pivot); err != nil {
			t.Fatal(err)
		}
		pivot.Cell()
		tout.Cell()
		if tinWrites {
			tin.Cell()
		}

		var pivotCT, toutCT, tinCT TS
		var commitErr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			pivotCT, commitErr = m.CommitPrepare(pivot)
		}()
		go func() {
			defer wg.Done()
			// tout first, then tin: if tout's stamp beats the pivot's,
			// commit(tout) is the smallest timestamp of the three.
			var err error
			if toutCT, err = m.CommitPrepare(tout); err == nil {
				m.Finish(tout, true)
			} else {
				m.Abort(tout)
			}
			if tinCT, err = m.CommitPrepare(tin); err == nil {
				m.Finish(tin, true)
			} else {
				m.Abort(tin)
			}
		}()
		wg.Wait()

		if commitErr == nil {
			check(i, pivotCT, toutCT, tinCT)
			m.Finish(pivot, true)
		} else {
			m.Abort(pivot)
		}
	}
}
