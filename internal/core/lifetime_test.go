package core

import (
	"runtime"
	"sync"
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
// which are held together, so that each draws a different record, and then
// ended unseen and released again.
func comesBack(t *testing.T, m *Manager, rec *Txn) bool {
	var drawn [8]*Txn
	back := false
	for i := range drawn {
		drawn[i] = m.Begin(SnapshotIsolation)
		back = back || drawn[i] == rec
	}
	for _, n := range drawn {
		m.Abort(n)
		m.Release(n)
	}
	return back
}

// pinKinds are the transactions a record's recycling waits for: any that was
// registered when the record was let go of, with a snapshot (which also holds
// the retirement queues) or without one yet (which holds only the grace
// horizon).
var pinKinds = []struct {
	name  string
	begin func(m *Manager) *Txn
}{
	{"pin with a snapshot", func(m *Manager) *Txn {
		p := m.Begin(SnapshotIsolation)
		m.AssignSnapshot(p)
		return p
	}},
	{"pin without a snapshot", func(m *Manager) *Txn { return m.Begin(SerializableSI) }},
}

// TestSeenRecordsAreNeverPooled: Release recycles a record at once only if
// core can prove that the registry was its only holder besides the engine,
// and any other record only once every transaction registered when it was let
// go of has ended. A record that took a lock (the lock table's holder maps
// named it), got a creator cell (versions reached it through the cell), was
// queued by FinishWith (a retirement queue, and then the retire hook, held
// it) or took a reader slot (a writer may have resolved the slot to it) does
// not come back from BeginTx while such a transaction — the pin — runs, and
// comes back once it has ended. A record that was an endpoint of MarkConflict
// (a partner's in or out reference may name it) and an aborted writer (a page
// stamp may name its unsevered cell) never come back. A record that ended
// unseen comes back at once.
func TestSeenRecordsAreNeverPooled(t *testing.T) {
	var m *Manager // each subtest's own, so that a failed one leaves no pin behind
	for _, c := range []struct {
		name  string
		never bool
		end   func() *Txn // runs a transaction to its end and returns its record
	}{
		{"lock state", false, func() *Txn {
			r := m.BeginTx(SerializableSI, true)
			m.AssignSnapshot(r)
			r.Locks().MarkUsed() // as the lock manager does at a first acquire
			r.Locks().MarkUnlocked()
			commit(t, m, r, false)
			return r
		}},
		{"cell, aborted", true, func() *Txn {
			w := m.Begin(SnapshotIsolation)
			w.Cell()
			m.Abort(w)
			return w
		}},
		{"MarkConflict reader", true, func() *Txn {
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
		{"MarkConflict writer", true, func() *Txn {
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
		{"queued by keep", false, func() *Txn {
			r := m.Begin(SerializableSI)
			m.AssignSnapshot(r)
			commit(t, m, r, true)
			return r
		}},
		{"queued by payload", false, func() *Txn {
			r := m.Begin(SerializableSI)
			m.AssignSnapshot(r)
			if _, err := m.CommitPrepare(r); err != nil {
				t.Fatal(err)
			}
			m.FinishWith(r, false, "payload")
			return r
		}},
		{"reader slot, aborted", false, func() *Txn {
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
			for _, pk := range pinKinds {
				t.Run(pk.name, func(t *testing.T) {
					m = NewManager(DetectorPrecise)
					// A pool may miss (and drops puts at random under the race
					// detector), so repeat until the record comes back.
					for round := 0; round < 100; round++ {
						pin := pk.begin(m)
						rec := c.end()
						m.Release(rec)
						if comesBack(t, m, rec) {
							t.Fatalf("round %d: a record came back while a transaction registered before its end still ran", round)
						}
						m.Abort(pin)
						m.Release(pin)
						if st := m.StatsSnapshot(); st.Active != 0 || st.Suspended != 0 || st.Limbo != 0 {
							t.Fatalf("round %d: the pin's end left %+v", round, st)
						}
						back := comesBack(t, m, rec)
						switch {
						case back && c.never:
							t.Fatalf("round %d: a record that must never be recycled came back from the pool", round)
						case back:
							return
						case c.never && round == 19:
							return
						}
					}
					t.Fatal("the record never came back from the pool once the pin had ended")
				})
			}
		})
	}

	t.Run("unseen", func(t *testing.T) {
		m = NewManager(DetectorPrecise)
		pin := m.Begin(SnapshotIsolation)
		m.AssignSnapshot(pin)
		defer m.Abort(pin)
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

// TestBoundedLimbo: limbo holds a released record only while a transaction
// that was registered when it was let go of still runs. Once the last
// transaction of a concurrent run has ended, limbo is empty — the last end's
// sweep recycles everything, whichever ends ran last. Under a pinned snapshot,
// the records of the transactions that ran after the pin began do not pile up
// in limbo: the committed writers wait in their retirement queues until the
// pin ends (bounding those is the summary tier's job) and the readers that
// ended unseen are recycled at once. A record that did not need a retirement
// — here an aborted transaction that took a lock — does wait in limbo for the
// pin, and limbo then stops at limboMax records a shard; the rest are left to
// the collector.
func TestBoundedLimbo(t *testing.T) {
	t.Run("last end empties it", func(t *testing.T) {
		m := NewManager(DetectorPrecise)
		const workers, rounds = 4, 300
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var held *Txn // a transaction kept open across the next one's end
				for i := 0; i < rounds; i++ {
					r := m.Begin(SerializableSI)
					m.AssignSnapshot(r)
					switch (w + i) % 4 {
					case 0: // a committed writer, queued for retirement
						r.Cell()
						if _, err := m.CommitPrepare(r); err != nil {
							t.Error(err)
							return
						}
						m.Finish(r, true)
					case 1: // an aborted reader that took a slot
						m.FreeReaderSlot(m.ReaderSlot(r))
						m.Abort(r)
					case 2: // an aborted transaction that took and released a lock
						r.Locks().MarkUsed()
						r.Locks().MarkUnlocked()
						m.Abort(r)
					case 3: // ended unseen
						m.Abort(r)
					}
					m.Release(r)
					if held != nil {
						m.Abort(held)
						m.Release(held)
						held = nil
					} else if i%3 == 0 {
						held = m.Begin(SerializableSI)
					}
				}
				if held != nil {
					m.Abort(held)
					m.Release(held)
				}
			}(w)
		}
		wg.Wait()
		if st := m.StatsSnapshot(); st.Active != 0 || st.Suspended != 0 || st.Limbo != 0 {
			t.Fatalf("after the last end: %+v, want nothing active, suspended or in limbo", st)
		}
	})

	t.Run("pinned snapshot", func(t *testing.T) {
		m := NewManager(DetectorPrecise)
		pin := m.Begin(SnapshotIsolation)
		m.AssignSnapshot(pin)
		if st := m.StatsSnapshot(); st.Limbo != 0 {
			t.Fatalf("limbo holds %d records before the pin's stream", st.Limbo)
		}
		const n = 500
		for i := 0; i < n; i++ {
			w := m.Begin(SerializableSI)
			m.AssignSnapshot(w)
			w.Cell()
			commit(t, m, w, true)
			m.Release(w)
			m.Release(endUnseen(t, m))
		}
		if st := m.StatsSnapshot(); st.Suspended != n || st.Limbo != 0 {
			t.Fatalf("under the pin: %d suspended, %d in limbo; want %d and none", st.Suspended, st.Limbo, n)
		}
		m.Abort(pin)
		m.Release(pin)
		if st := m.StatsSnapshot(); st.Active != 0 || st.Suspended != 0 || st.Limbo != 0 {
			t.Fatalf("after the pin's end: %+v, want nothing active, suspended or in limbo", st)
		}
	})

	t.Run("full limbo", func(t *testing.T) {
		m := NewManager(DetectorPrecise)
		pin := m.Begin(SerializableSI)
		n := 3 * limboMax * len(m.shards)
		for i := 0; i < n; i++ {
			r := m.Begin(SerializableSI)
			r.Locks().MarkUsed()
			r.Locks().MarkUnlocked()
			m.Abort(r)
			m.Release(r)
		}
		for i, sh := range m.shards {
			if l := sh.limbo.len(); l > limboMax {
				t.Fatalf("shard %d's limbo holds %d records under the pin, bound %d", i, l, limboMax)
			}
		}
		if st := m.StatsSnapshot(); st.Limbo == 0 {
			t.Fatal("no released record waits in limbo for the pin")
		}
		m.Abort(pin)
		m.Release(pin)
		if st := m.StatsSnapshot(); st.Active != 0 || st.Limbo != 0 {
			t.Fatalf("after the pin's end: %+v, want nothing active or in limbo", st)
		}
	})
}
