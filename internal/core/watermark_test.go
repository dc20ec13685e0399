package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestWatermarkSequential pins OldestActiveSnapshot's contract in the
// sequential case, where the registered constraint equals the snapshot: the
// watermark is the oldest active snapshot while one exists, and clock+1
// (nothing older can ever begin) when none does.
func TestWatermarkSequential(t *testing.T) {
	m := NewManager(DetectorPrecise)
	if got := m.OldestActiveSnapshot(); got != 1 {
		t.Fatalf("empty watermark = %d, want clock+1 = 1", got)
	}
	a := m.Begin(SerializableSI)
	// A transaction without a snapshot does not constrain the horizon.
	if got := m.OldestActiveSnapshot(); got != 1 {
		t.Fatalf("watermark with unsnapshotted txn = %d, want 1", got)
	}
	sa := m.AssignSnapshot(a)
	if got := m.OldestActiveSnapshot(); got != sa {
		t.Fatalf("watermark = %d, want a's snapshot %d", got, sa)
	}
	b := m.Begin(SerializableSI)
	sb := m.AssignSnapshot(b)
	if got := m.OldestActiveSnapshot(); got != sa {
		t.Fatalf("watermark = %d, want still %d", got, sa)
	}
	if _, err := m.CommitPrepare(a); err != nil {
		t.Fatal(err)
	}
	m.Finish(a, false)
	if got := m.OldestActiveSnapshot(); got != sb {
		t.Fatalf("watermark after a finished = %d, want b's snapshot %d", got, sb)
	}
	if _, err := m.CommitPrepare(b); err != nil {
		t.Fatal(err)
	}
	m.Finish(b, false)
	if got, clock := m.OldestActiveSnapshot(), m.Now(); got != clock+1 {
		t.Fatalf("drained watermark = %d, want clock+1 = %d", got, clock+1)
	}
}

// TestWatermarkNeverPassesActiveSnapshot is the safety property the MVCC
// pruner depends on: while a snapshotted transaction is active, the
// watermark must never exceed its snapshot, no matter how much concurrent
// begin/commit churn advances the clock.
func TestWatermarkNeverPassesActiveSnapshot(t *testing.T) {
	m := NewManager(DetectorPrecise)
	hold := m.Begin(SerializableSI)
	sh := m.AssignSnapshot(hold)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				txn := m.Begin(SnapshotIsolation)
				m.AssignSnapshot(txn)
				if _, err := m.CommitPrepare(txn); err == nil {
					m.Finish(txn, false)
				}
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		if got := m.OldestActiveSnapshot(); got > sh {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("watermark %d passed active snapshot %d", got, sh)
		}
	}
	stop.Store(true)
	wg.Wait()

	if _, err := m.CommitPrepare(hold); err != nil {
		t.Fatal(err)
	}
	m.Finish(hold, false)
	if got := m.OldestActiveSnapshot(); got <= sh {
		t.Fatalf("watermark %d did not advance past released snapshot %d", got, sh)
	}
}

// TestSnapshotObservesEarlierCommits checks the commit-serialization point:
// any snapshot allocated after a commit's timestamp must observe that
// commit fully published (status and commitTS), or a transaction could read
// an inconsistent snapshot. Writers publish through stampCommitted under
// tsMu; readers allocate under tsMu; the test races them and verifies the
// invariant on every observation.
func TestSnapshotObservesEarlierCommits(t *testing.T) {
	m := NewManager(DetectorPrecise)
	var stop atomic.Bool
	var committing atomic.Pointer[Txn]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			w := m.Begin(SnapshotIsolation)
			m.AssignSnapshot(w)
			// Publish w while it is still uncommitted, so readers race
			// against the publication inside CommitPrepare itself.
			committing.Store(w)
			if _, err := m.CommitPrepare(w); err != nil {
				m.Abort(w)
				continue
			}
			m.Finish(w, false)
		}
	}()

	for i := 0; i < 20000; i++ {
		r := m.Begin(SnapshotIsolation)
		snap := m.AssignSnapshot(r)
		if w := committing.Load(); w != nil {
			// If w's commit timestamp is below our snapshot, its committed
			// status must already be visible — a half-published commit here
			// would hand r an inconsistent snapshot.
			if ct := w.CommitTS(); ct != 0 && ct < snap && !w.Committed() {
				t.Fatalf("snapshot %d missed commit %d", snap, ct)
			}
		}
		m.Abort(r)
	}
	stop.Store(true)
	wg.Wait()
}
