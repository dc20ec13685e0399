package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReadOnlySkipsOutEdge pins invariant 4: a declared read-only reader
// never records an outgoing rw-edge, while the writer's incoming record is
// still installed (the pivot must keep seeing it at commit time).
func TestReadOnlySkipsOutEdge(t *testing.T) {
	for _, det := range []Detector{DetectorBasic, DetectorPrecise} {
		m := NewManager(det)
		ro := m.BeginTx(SerializableSI, true)
		w := m.Begin(SerializableSI)
		m.AssignSnapshot(ro)
		m.AssignSnapshot(w)
		if err := m.MarkConflict(ro, w, ro); err != nil {
			t.Fatalf("detector %v: %v", det, err)
		}
		if m.HasOutConflict(ro) {
			t.Fatalf("detector %v: read-only reader recorded an out-edge", det)
		}
		if m.HasInConflict(ro) {
			t.Fatalf("detector %v: read-only reader recorded an in-edge", det)
		}
		if !m.HasInConflict(w) {
			t.Fatalf("detector %v: writer lost its in-edge from the RO reader", det)
		}
	}
}

// TestReadOnlyPivotStillAborts runs the read-only-anomaly edge pattern at
// the core level: with the incoming reader declared read-only the pivot must
// still become unsafe once it also carries an outgoing edge.
func TestReadOnlyPivotStillAborts(t *testing.T) {
	m := NewManager(DetectorBasic)
	tin := m.BeginTx(SerializableSI, true)
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
	if !pivotUnsafe(m, pivot) {
		t.Fatal("pivot with RO in-edge and RW out-edge not flagged unsafe")
	}
	if _, err := m.CommitPrepare(pivot); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("pivot commit = %v, want ErrUnsafe", err)
	}
}

// TestReadOnlyCommitIsPublication pins the degenerate commit path: a
// read-only SerializableSI transaction commits via pure publication, and
// AbortEarly on it is a status probe only — even when a (spurious) dangerous
// pattern surrounds it.
func TestReadOnlyCommitIsPublication(t *testing.T) {
	m := NewManager(DetectorBasic)
	ro := m.BeginTx(SerializableSI, true)
	w := m.Begin(SerializableSI)
	m.AssignSnapshot(ro)
	m.AssignSnapshot(w)
	if err := m.MarkConflict(ro, w, ro); err != nil {
		t.Fatal(err)
	}
	if err := m.AbortEarly(ro); err != nil {
		t.Fatalf("AbortEarly on RO: %v", err)
	}
	ct, err := m.CommitPrepare(ro)
	if err != nil {
		t.Fatalf("CommitPrepare on RO: %v", err)
	}
	if ct == 0 || ro.CommitTS() != ct || !ro.Committed() {
		t.Fatal("RO commit did not publish timestamp and status")
	}
	m.Finish(ro, false)
	commit(t, m, w, false)
}

// TestOldestActiveRWSnapshotExcludesRO pins the read-write watermark: a
// declared read-only transaction holds down OldestActiveSnapshot (vacuum
// correctness) but not OldestActiveRWSnapshot (safe-snapshot detection).
func TestOldestActiveRWSnapshotExcludesRO(t *testing.T) {
	m := NewManager(DetectorBasic)
	ro := m.BeginTx(SerializableSI, true)
	s := m.AssignSnapshot(ro)
	if got := m.OldestActiveSnapshot(); got > s {
		t.Fatalf("OldestActiveSnapshot = %d, want ≤ %d (RO pins it)", got, s)
	}
	if got := m.OldestActiveRWSnapshot(); got <= s {
		t.Fatalf("OldestActiveRWSnapshot = %d, want > %d (RO excluded)", got, s)
	}
	rw := m.Begin(SerializableSI)
	srw := m.AssignSnapshot(rw)
	if got := m.OldestActiveRWSnapshot(); got > srw {
		t.Fatalf("OldestActiveRWSnapshot = %d, want ≤ %d (RW pins it)", got, srw)
	}
	commit(t, m, rw, false)
	if got := m.OldestActiveRWSnapshot(); got <= srw {
		t.Fatalf("OldestActiveRWSnapshot = %d after RW end, want > %d", got, srw)
	}
	m.Finish(ro, false)
}

// TestSnapshotSafeTransitions walks the safe-snapshot predicate through its
// cases: unassigned snapshots are never safe, a snapshot is unsafe while an
// older-or-equal read-write transaction runs, safe once none remains, and a
// threatening commit (out-edge at commit) dooms every older snapshot.
func TestSnapshotSafeTransitions(t *testing.T) {
	m := NewManager(DetectorBasic)
	unassigned := m.BeginTx(SerializableSI, true)
	if m.SnapshotSafe(unassigned, 0) {
		t.Fatal("transaction without a snapshot reported safe")
	}
	m.Abort(unassigned)

	// A concurrent elder RW transaction alone does NOT make the snapshot
	// unsafe (Tout-window refinement): with no read-write commit inside
	// (snap(rw), s], rw has no possible out-partner committed before s.
	rw := m.Begin(SerializableSI)
	srw := m.AssignSnapshot(rw)
	roEarly := m.BeginTx(SerializableSI, true)
	sEarly, hiEarly := m.AssignSnapshotTout(roEarly)
	if !m.SnapshotSafe(roEarly, hiEarly) {
		t.Fatalf("snapshot %d unsafe despite an empty Tout window (rw snap %d, no commits)", sEarly, srw)
	}
	m.Finish(roEarly, false)

	// A read-write commit inside the elder's window arms it: rw could now
	// hold (or later acquire) an out-edge to that committed Tout.
	tout := m.Begin(SerializableSI)
	m.AssignSnapshot(tout)
	commit(t, m, tout, false)
	ro := m.BeginTx(SerializableSI, true)
	s, hi := m.AssignSnapshotTout(ro)
	if m.SnapshotSafe(ro, hi) {
		t.Fatalf("snapshot %d safe while RW txn (snap %d) is active with a committed Tout in its window", s, srw)
	}
	commit(t, m, rw, false) // no out-edge: no threat raised
	if !m.SnapshotSafe(ro, hi) {
		t.Fatalf("snapshot %d not safe after the only RW txn committed cleanly", s)
	}
	m.Finish(ro, false)

	// A threatening commit — an RW transaction carrying an out-edge — dooms
	// snapshots older than its commit timestamp and spares newer ones.
	reader := m.Begin(SerializableSI)
	writer := m.Begin(SerializableSI)
	m.AssignSnapshot(reader)
	m.AssignSnapshot(writer)
	ro2 := m.BeginTx(SerializableSI, true)
	s2, hi2 := m.AssignSnapshotTout(ro2)
	if err := m.MarkConflict(reader, writer, reader); err != nil {
		t.Fatal(err)
	}
	ct := commit(t, m, reader, true) // reader commits with out-edge: threat
	if got := m.threatHi.Load(); got != ct {
		t.Fatalf("threat horizon = %d, want %d", got, ct)
	}
	if m.SnapshotSafe(ro2, hi2) {
		t.Fatalf("snapshot %d safe despite threat at %d", s2, ct)
	}
	m.Abort(ro2)
	commit(t, m, writer, false)

	ro3 := m.BeginTx(SerializableSI, true)
	s3, hi3 := m.AssignSnapshotTout(ro3)
	if s3 <= ct {
		t.Fatalf("fresh snapshot %d not above threat %d", s3, ct)
	}
	if !m.SnapshotSafe(ro3, hi3) {
		t.Fatalf("snapshot %d above the threat horizon and no RW active: want safe", s3)
	}
	m.Finish(ro3, false)
}

// TestSnapshotSafeNeverFalsePositive races safe-snapshot queries against
// read-write transactions that commit carrying out-edges, asserting the
// no-false-positive invariant (package comment, "Safe snapshots"): for every
// snapshot s that ever verified safe, no dangerous structure against s can
// commit afterwards — a pivot with snapshot snap and commit timestamp ct
// whose out-partner committed at ctw endangers s only when
// snap < ctw ≤ s < ct, and any transaction in a position to do that either
// showed in the read-write watermark with a Tout already in its window, or
// had raised the threat horizon before the verdict. (The predicate itself
// is NOT sticky: a harmless later commit flips SnapshotSafe(s) back to
// false, conservatively. maxSafe below tracks the highest positive verdict,
// and every out-edge-carrying committer checks itself against it.)
func TestSnapshotSafeNeverFalsePositive(t *testing.T) {
	m := NewManager(DetectorPrecise)
	var stop atomic.Bool
	var maxSafe atomic.Uint64
	var verdicts atomic.Uint64
	var wg sync.WaitGroup
	// RW churn: pairs that conflict; w (the written-to side) commits first so
	// its timestamp is a concrete Tout candidate, then r commits carrying the
	// out-edge to it — the pivot shape.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				r := m.Begin(SerializableSI)
				w := m.Begin(SerializableSI)
				snap := m.AssignSnapshot(r)
				m.AssignSnapshot(w)
				if err := m.MarkConflict(r, w, r); err != nil {
					m.Abort(r)
					m.Abort(w)
					continue
				}
				ctw, werr := m.CommitPrepare(w)
				if ct, err := m.CommitPrepare(r); err == nil {
					if s := maxSafe.Load(); werr == nil && snap < ctw && ctw <= s && s < ct {
						panic("dangerous structure committed against a snapshot that verified safe")
					}
					m.Finish(r, true)
				} else {
					m.Abort(r)
				}
				if werr == nil {
					m.Finish(w, false)
				} else {
					m.Abort(w)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20000; i++ {
			ro := m.BeginTx(SerializableSI, true)
			s, hi := m.AssignSnapshotTout(ro)
			if m.SnapshotSafe(ro, hi) {
				verdicts.Add(1)
				for {
					old := maxSafe.Load()
					if s <= old || maxSafe.CompareAndSwap(old, s) {
						break
					}
				}
			}
			m.Abort(ro)
		}
		stop.Store(true)
	}()
	wg.Wait()
	t.Logf("positive verdicts: %d of 20000 probes", verdicts.Load())
}
