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

// endUnseen runs a declared read-only SerializableSI transaction the way a
// promoted reader of the engine runs: a snapshot, no lock, no cell, no
// conflict, committed and finished without keep. Its record ends unseen.
func endUnseen(t *testing.T, m *Manager) *Txn {
	r := m.BeginTx(SerializableSI, true)
	m.AssignSnapshot(r)
	commit(t, m, r, false)
	return r
}

// comesBack reports whether rec is handed out by one of the next few begins,
// which are ended unseen and released again.
func comesBack(t *testing.T, m *Manager, rec *Txn) bool {
	back := false
	for i := 0; i < 4; i++ {
		n := m.Begin(SnapshotIsolation)
		back = back || n == rec
		m.Abort(n)
		m.Release(n)
	}
	return back
}

// TestSeenRecordsAreNeverPooled: Release recycles a record only if core can
// prove that the registry was its only holder besides the engine. A record
// that took a lock (the lock table's holder maps name it), got a creator cell
// (versions reach it through the cell), was an endpoint of MarkConflict (a
// partner's in or out reference may name it), was queued by FinishWith (a
// retirement queue, and then the retire hook, hold it) or took a reader slot
// (a writer may have resolved the slot to it) never comes back from BeginTx;
// a record that ended unseen does.
func TestSeenRecordsAreNeverPooled(t *testing.T) {
	m := NewManager(DetectorPrecise)
	pin := m.Begin(SnapshotIsolation)
	m.AssignSnapshot(pin) // keeps queued records queued
	defer m.Abort(pin)

	for _, c := range []struct {
		name string
		end  func() *Txn // runs a transaction to its end and returns its record
	}{
		{"lock state", func() *Txn {
			r := m.BeginTx(SerializableSI, true)
			m.AssignSnapshot(r)
			r.Locks().MarkUsed() // as the lock manager does at a first acquire
			commit(t, m, r, false)
			return r
		}},
		{"cell, aborted", func() *Txn {
			w := m.Begin(SnapshotIsolation)
			w.Cell()
			m.Abort(w)
			return w
		}},
		{"MarkConflict reader", func() *Txn {
			r := m.BeginTx(SerializableSI, true)
			w := m.Begin(SerializableSI)
			m.AssignSnapshot(r)
			if err := m.MarkConflict(r, w, r); err != nil {
				t.Fatal(err)
			}
			commit(t, m, r, false) // w.in now names r
			m.Abort(w)
			return r
		}},
		{"MarkConflict writer", func() *Txn {
			r := m.Begin(SerializableSI)
			w := m.Begin(SerializableSI)
			m.AssignSnapshot(r)
			m.AssignSnapshot(w)
			if err := m.MarkConflict(r, w, w); err != nil {
				t.Fatal(err)
			}
			commit(t, m, w, false) // r.out names w
			m.Abort(r)
			return w
		}},
		{"queued by keep", func() *Txn {
			r := m.Begin(SerializableSI)
			m.AssignSnapshot(r)
			commit(t, m, r, true)
			return r
		}},
		{"queued by payload", func() *Txn {
			r := m.Begin(SerializableSI)
			m.AssignSnapshot(r)
			if _, err := m.CommitPrepare(r); err != nil {
				t.Fatal(err)
			}
			m.FinishWith(r, false, "payload")
			return r
		}},
		{"reader slot, aborted", func() *Txn {
			r := m.Begin(SerializableSI)
			m.AssignSnapshot(r)
			slot := m.ReaderSlot(r)
			if m.Reader(slot) != r {
				t.Fatalf("slot %d names %v, not its reader", slot, m.Reader(slot))
			}
			m.FreeReaderSlot(slot)
			m.Abort(r)
			return r
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for round := 0; round < 20; round++ {
				rec := c.end()
				m.Release(rec)
				if comesBack(t, m, rec) {
					t.Fatalf("round %d: a record that was seen came back from the pool", round)
				}
			}
		})
	}

	t.Run("unseen", func(t *testing.T) {
		// A pool may miss (and drops puts at random under the race
		// detector), so repeat until the record comes back.
		for round := 0; round < 100; round++ {
			rec := endUnseen(t, m)
			m.Release(rec)
			if comesBack(t, m, rec) {
				return
			}
		}
		t.Fatal("a record that ended unseen never came back from the pool")
	})
}

// TestPooledRecordPinsNothing: a record Release takes is zeroed — no id,
// timestamps, status, flags, references, cell or lock state survive into the
// transaction BeginTx hands it to — and nothing in the Manager keeps it: once
// the pool lets go of it, the collector frees it.
func TestPooledRecordPinsNothing(t *testing.T) {
	m := NewManager(DetectorPrecise)
	w := m.Begin(SnapshotIsolation)
	m.AssignSnapshot(w)
	w.Cell()
	commit(t, m, w, false)

	r := endUnseen(t, m)
	if r.Snapshot() == 0 || r.CommitTS() == 0 || !r.readOnly {
		t.Fatalf("the reader ended without its state: snapshot %d, commit %d", r.Snapshot(), r.CommitTS())
	}
	m.Release(r)
	if r.id != 0 || r.beginTS.Load() != 0 || r.commitTS.Load() != 0 ||
		r.Status() != StatusActive || r.iso != 0 || r.readOnly || r.marked || r.kept ||
		r.in.Load() != nil || r.out.Load() != nil || r.outCT != 0 || r.cell != nil ||
		r.locks.Used() || r.locks.Released() || r.locks.Held != nil || r.locks.SIReads != 0 {
		t.Fatalf("a pooled record is not zero: %+v", r)
	}
	if !r.csMu.TryLock() || !r.locks.TryLock() {
		t.Fatal("a pooled record's conflict or lock-state mutex is held")
	}
	r.csMu.Unlock()
	r.locks.Unlock()

	recs := make([]weak.Pointer[Txn], 64)
	for i := range recs {
		rec := endUnseen(t, m)
		m.Release(rec)
		recs[i] = weak.Make(rec)
	}
	runtime.GC()
	runtime.GC()
	for i, p := range recs {
		if p.Value() != nil {
			t.Fatalf("released record %d is still reachable once the pool has been emptied", i)
		}
	}
	runtime.KeepAlive(m)
}
