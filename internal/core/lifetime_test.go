package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"
	"weak"
)

// TestTxnRecordAllocBudget pins the layout the record-lifetime design pays
// with: the transaction record stays inside the 96-byte size class, which is
// what makes room for a writer's 24-byte creator cell without a commit
// allocating more than it did with one 128-byte record.
func TestTxnRecordAllocBudget(t *testing.T) {
	if n := unsafe.Sizeof(Txn{}); n > 96 {
		t.Errorf("core.Txn is %d bytes, budget 96 (the next size class is 112)", n)
	}
	if n := unsafe.Sizeof(Cell{}); n > 24 {
		t.Errorf("core.Cell is %d bytes, budget 24", n)
	}
}

// TestCellSeveredAtSweep walks one writer through its record's life as its
// versions see it: the cell appears at the first Cell call and never for a
// transaction that does not write; the commit stamps it beside the record;
// Finish suspends the writer whatever keep says; and the drain that retires
// it cuts the record loose while id and commit timestamp stay.
func TestCellSeveredAtSweep(t *testing.T) {
	m := NewManager(DetectorPrecise)
	retired := retirements(m)
	pin := m.Begin(SnapshotIsolation)
	m.AssignSnapshot(pin)

	reader := m.Begin(SnapshotIsolation)
	m.AssignSnapshot(reader)
	commit(t, m, reader, false)
	if n := m.StatsSnapshot().Suspended; reader.cell != nil || n != 0 {
		t.Fatalf("a transaction that wrote nothing has cell %p, %d suspended", reader.cell, n)
	}

	w := m.Begin(SnapshotIsolation)
	m.AssignSnapshot(w)
	c := w.Cell()
	if c != w.Cell() || c.Txn() != w || c.ID() != w.ID() || c.CommitTS() != 0 {
		t.Fatalf("fresh cell: txn %p (want %p), id %d, commitTS %d", c.Txn(), w, c.ID(), c.CommitTS())
	}
	ct := commit(t, m, w, false)
	if c.CommitTS() != ct {
		t.Fatalf("cell stamped %d, record %d", c.CommitTS(), ct)
	}
	if n := m.StatsSnapshot().Suspended; n != 1 || c.Txn() != w {
		t.Fatalf("committed writer under a pinned snapshot: %d suspended, cell record %p", n, c.Txn())
	}

	m.Abort(pin)
	if got := retired(); len(got) != 1 || got[0].Txn != w {
		t.Fatalf("ending the pin retired %v, want the writer", got)
	}
	if c.Txn() != nil || c.CommitTS() != ct || c.ID() != w.ID() {
		t.Fatalf("retired writer's cell: record %p, commitTS %d, id %d", c.Txn(), c.CommitTS(), c.ID())
	}

	// An aborted writer's cell keeps its record: "no record" always means
	// "committed and visible to everyone".
	a := m.Begin(SnapshotIsolation)
	ac := a.Cell()
	m.Abort(a)
	if ac.Txn() != a || ac.CommitTS() != 0 {
		t.Fatalf("aborted writer's cell: record %p, commitTS %d", ac.Txn(), ac.CommitTS())
	}
}

// TestSweepReleasesRetiredRecords: once a drain has retired a suspended
// transaction, the retirement queues must not keep it reachable — not from
// the slack of their backing arrays either, which after one pinned-snapshot
// episode are as long as the queues ever grew.
func TestSweepReleasesRetiredRecords(t *testing.T) {
	m := NewManager(DetectorPrecise)
	var retired atomic.Int64
	m.SetRetireHook(func(batch []Retired) { retired.Add(int64(len(batch))) })
	pin := m.Begin(SnapshotIsolation)
	m.AssignSnapshot(pin)

	const n = 4096
	recs := make([]weak.Pointer[Txn], n)
	for i := range recs {
		txn := m.Begin(SerializableSI)
		m.AssignSnapshot(txn)
		commit(t, m, txn, true)
		recs[i] = weak.Make(txn)
	}
	if st := m.StatsSnapshot(); st.Suspended != n {
		t.Fatalf("Suspended = %d under a pinned snapshot, want %d", st.Suspended, n)
	}
	if m.Abort(pin); retired.Load() != n {
		t.Fatalf("the pin's end retired %d, want %d", retired.Load(), n)
	}
	runtime.GC()
	runtime.GC()
	alive := 0
	for _, r := range recs {
		if r.Value() != nil {
			alive++
		}
	}
	if alive != 0 {
		t.Fatalf("%d of %d retired records are still reachable from the Manager", alive, n)
	}
	runtime.KeepAlive(m)
}
