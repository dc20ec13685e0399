package lock

import (
	"fmt"
	"sync"
	"testing"

	"ssi/internal/core"
	"ssi/internal/raceflag"
)

// TestFirstAcquireAllocBudget: an owner's bookkeeping is part of its
// transaction record (core.Txn.Locks), so a fresh record's first lock — a
// point acquire in each mode, and a scan's batch — allocates nothing once the
// lock table's pools are warm: not the owner state, which is already there,
// nor its list of held entries, the entries or the release scratch, which
// are recycled.
func TestFirstAcquireAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under -race; the budget assumes it does not")
	}
	const runs = 200
	mgr := core.NewManager(core.DetectorPrecise)
	m := NewManagerShards(true, 8)
	keys := make([]Key, 16)
	for i := range keys {
		keys[i] = RowKey("t", []byte(fmt.Sprintf("k%02d", i)))
	}
	for _, c := range []struct {
		name string
		lock func(owner *core.Txn)
	}{
		{"SIRead", func(o *core.Txn) { m.AcquireInto(o, keys[0], SIRead, nil) }},
		{"Exclusive", func(o *core.Txn) { m.AcquireInto(o, keys[1], Exclusive, nil) }},
		{"Shared", func(o *core.Txn) { m.AcquireInto(o, keys[2], Shared, nil) }},
		{"batch", func(o *core.Txn) { m.AcquireSIReadBatchInto(o, keys, nil) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			// AllocsPerRun calls its function once more than runs, to warm up.
			owners := make([]*core.Txn, runs+2)
			for i := range owners {
				owners[i] = mgr.Begin(core.SerializableSI)
			}
			c.lock(owners[0]) // warm the pools
			m.ReleaseAll(owners[0])
			next := 1
			allocs := testing.AllocsPerRun(runs, func() {
				o := owners[next]
				next++
				c.lock(o)
				m.ReleaseAll(o)
			})
			if allocs != 0 {
				t.Errorf("a fresh record's first %s lock and its release: %.2f allocs, want 0", c.name, allocs)
			}
			for _, o := range owners {
				mgr.Abort(o)
			}
		})
	}
}

// TestLockedRecordIsNeverPooled: a record that took a lock is not handed to
// another transaction while a transaction registered before its end — the
// pin — still runs, however it ended and whatever it held: that transaction
// may have found it in the lock table's holder maps or its shards' waiters.
// Once the pin has ended, the record comes back if its locks were released,
// and never if they were not (the lock table still names it). The record of a
// transaction that locked nothing comes back at once. The owner state that
// makes the difference is the record's own (Locks), marked used at the first
// acquire and never cleared.
func TestLockedRecordIsNeverPooled(t *testing.T) {
	// Each subtest's own, so that a failed one leaves no pin or lock behind.
	var mgr *core.Manager
	var m *Manager
	key := RowKey("t", []byte("k"))
	// comesBack reports whether one of the next few begins, held together so
	// that each draws a different record and then ended unseen and released
	// again, is handed rec.
	comesBack := func(rec *core.Txn) bool {
		var drawn [8]*core.Txn
		back := false
		for i := range drawn {
			drawn[i] = mgr.Begin(core.SnapshotIsolation)
			back = back || drawn[i] == rec
		}
		for _, n := range drawn {
			mgr.Abort(n)
			mgr.Release(n)
		}
		return back
	}
	for _, c := range []struct {
		name  string
		never bool
		end   func() *core.Txn // runs a transaction to its end and returns its record
	}{
		{"SIRead, committed", false, func() *core.Txn {
			r := mgr.BeginTx(core.SerializableSI, true)
			mgr.AssignSnapshot(r)
			if _, err := m.AcquireInto(r, key, SIRead, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := mgr.CommitPrepare(r); err != nil {
				t.Fatal(err)
			}
			m.ReleaseAll(r)
			mgr.Finish(r, false)
			return r
		}},
		{"Exclusive, aborted", false, func() *core.Txn {
			w := mgr.Begin(core.SnapshotIsolation)
			if _, err := m.AcquireInto(w, key, Exclusive, nil); err != nil {
				t.Fatal(err)
			}
			mgr.Abort(w)
			m.ReleaseAll(w)
			return w
		}},
		{"batch, never released", true, func() *core.Txn {
			r := mgr.Begin(core.SerializableSI)
			m.AcquireSIReadBatchInto(r, []Key{key}, nil)
			mgr.Abort(r)
			return r
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			mgr, m = core.NewManager(core.DetectorPrecise), NewManagerShards(true, 8)
			// A pool may miss (and drops puts at random under the race
			// detector), so repeat until the record comes back.
			for round := 0; round < 100; round++ {
				pin := mgr.Begin(core.SerializableSI) // no snapshot: it holds no retirement
				rec := c.end()
				if stateOf(rec) == nil {
					t.Fatal("a record that took a lock reports no lock state")
				}
				mgr.Release(rec)
				if comesBack(rec) {
					t.Fatalf("round %d: a record that took a lock came back while a transaction registered before its end still ran", round)
				}
				mgr.Abort(pin)
				mgr.Release(pin)
				back := comesBack(rec)
				switch {
				case back && c.never:
					t.Fatalf("round %d: a record the lock table still names came back from the pool", round)
				case back:
					return
				case c.never && round == 19:
					return
				}
			}
			t.Fatal("a record whose locks were released never came back once the pin had ended")
		})
	}
	t.Run("no lock", func(t *testing.T) {
		mgr, m = core.NewManager(core.DetectorPrecise), NewManagerShards(true, 8)
		pin := mgr.Begin(core.SerializableSI)
		defer mgr.Abort(pin)
		// A pool may miss (and drops puts at random under the race
		// detector), so repeat until the record comes back.
		for round := 0; round < 100; round++ {
			r := mgr.BeginTx(core.SerializableSI, true)
			mgr.AssignSnapshot(r)
			if m.HoldsSIRead(r); stateOf(r) != nil {
				t.Fatal("a record that took no lock reports lock state")
			}
			mgr.Abort(r)
			m.ReleaseAll(r) // a no-op for an owner that never locked
			mgr.Release(r)
			if comesBack(r) {
				return
			}
		}
		t.Fatal("a record that took no lock never came back from the pool")
	})
}

// TestReleasedOwnerKeepsNoKeyMap: once ReleaseAll has run, the owner state in
// the record holds no list of entries and no SIREAD count — whatever it held, in
// whatever mode, on however many shards, inherited or not — so a record kept
// alive by a retirement queue or a partner's reference pins no lock
// bookkeeping. The owner is retired for good: it may not lock again, and an
// engine that needs locks for the transaction's retry begins a new record.
func TestReleasedOwnerKeepsNoKeyMap(t *testing.T) {
	mgr := core.NewManager(core.DetectorPrecise)
	m := NewManagerShards(true, 8)
	r := mgr.Begin(core.SerializableSI)
	var keys []Key
	for i := 0; i < 64; i++ {
		keys = append(keys, RowKey("t", []byte(fmt.Sprintf("k%02d", i))))
	}
	m.AcquireSIReadBatchInto(r, keys[:32], nil)
	for _, k := range keys[32:48] {
		if _, err := m.AcquireInto(r, k, Exclusive, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[48:] {
		if _, err := m.AcquireInto(r, k, Shared, nil); err != nil {
			t.Fatal(err)
		}
	}
	m.Inherit(keys[0], GapKey("t", []byte("k00")))
	os := stateOf(r)
	if listed(os) != len(keys)+1 || os.SIReads != 33 {
		t.Fatalf("before the release: %d keys, %d SIREADs, want %d and 33", listed(os), os.SIReads, len(keys)+1)
	}
	checkOwner(t, m, r)
	m.ReleaseBlocking(r)
	if listed(os) != 33 || os.SIReads != 33 || os.Released() {
		t.Fatalf("after ReleaseBlocking: %d keys, %d SIREADs, released %v, want 33, 33 and false", listed(os), os.SIReads, os.Released())
	}
	checkOwner(t, m, r)
	m.ReleaseAll(r)
	if os.Held != nil || os.SIReads != 0 || !os.Released() || !os.Used() {
		t.Fatalf("after ReleaseAll: list %v, %d SIREADs, released %v, used %v; want nil, 0, true, true", os.Held, os.SIReads, os.Released(), os.Used())
	}
	checkOwner(t, m, r)
	if m.HoldsSIRead(r) {
		t.Error("a released owner still reports SIREAD locks")
	}
	if st := m.StatsSnapshot(); st.Keys != 0 || st.Owners != 0 {
		t.Fatalf("lock table not drained: %+v", st)
	}

	defer func() {
		if recover() == nil {
			t.Error("an acquire by a released owner did not panic")
		}
		if st := m.StatsSnapshot(); st.Keys != 0 {
			t.Errorf("the refused acquire left %d keys in the table", st.Keys)
		}
	}()
	m.AcquireInto(r, keys[0], SIRead, nil)
}

// listed returns how many entries os lists.
func listed(os *ownerState) int {
	if os.Held == nil {
		return 0
	}
	return len(*os.Held)
}

// checkOwner checks owner's bookkeeping against a quiet lock table: every
// listed entry is in its shard's table under its own key and holds owner,
// once; every entry holding owner is listed; a listed entry's hint names a
// blocking mode exactly when owner holds one there; and SIReads counts the
// entries owner holds with SIRead.
func checkOwner(t *testing.T, m *Manager, owner *core.Txn) {
	t.Helper()
	held := make(map[*entry]Mode)
	for _, s := range m.shards {
		s.mu.Lock()
		for k, e := range s.table {
			if e.key != k || e.s != s {
				t.Errorf("entry of %v names key %v in shard %p, not its own shard %p", k, e.key, e.s, s)
			}
			if mode, ok := e.holders[owner]; ok {
				held[e] = mode
			}
		}
		s.mu.Unlock()
	}
	os := owner.Locks()
	os.Lock()
	defer os.Unlock()
	seen := make(map[*entry]bool)
	if os.Held != nil {
		for _, h := range *os.Held {
			e := entryOf(h)
			if seen[e] {
				t.Errorf("transaction %d lists %v twice", owner.ID(), e.key)
			}
			seen[e] = true
			mode, ok := held[e]
			if !ok {
				t.Errorf("transaction %d lists an entry that does not hold it", owner.ID())
				continue
			}
			if blocking := Shared | Exclusive; (mode&blocking != 0) != (h.Hint&blocking != 0) {
				t.Errorf("transaction %d holds %v on %v, its hint says %v", owner.ID(), mode, e.key, h.Hint)
			}
		}
	}
	sireads := int32(0)
	for e, mode := range held {
		if !seen[e] {
			t.Errorf("transaction %d holds %v on %v but does not list it", owner.ID(), mode, e.key)
		}
		if mode&SIRead != 0 {
			sireads++
		}
	}
	if os.SIReads != sireads {
		t.Errorf("transaction %d counts %d SIREADs, holds %d", owner.ID(), os.SIReads, sireads)
	}
}

// TestInheritRacesRelease: inserts that split the gaps a reader scanned
// (Inherit from each scanned gap to the new one) race the reader's
// ReleaseBlocking, and then its ReleaseAll. The reader also holds an
// exclusive lock on one of its gaps, so the first release puts that entry
// back on its list as a SIREAD, and a second reader holds half the gaps, so
// their entries outlive the first reader's release. After each phase the
// bookkeeping matches the table (checkOwner); at the end the table is empty
// and no owner lists an entry.
func TestInheritRacesRelease(t *testing.T) {
	mgr := core.NewManager(core.DetectorBasic)
	m := NewManagerShards(true, 8)
	gaps := make([]Key, 16)
	for i := range gaps {
		gaps[i] = GapKey("t", []byte(fmt.Sprintf("g%02d", i)))
	}
	for round := 0; round < 100; round++ {
		r, o := mgr.Begin(core.SerializableSI), mgr.Begin(core.SerializableSI)
		m.AcquireSIReadBatchInto(r, gaps, nil)
		m.AcquireSIReadBatchInto(o, gaps[:8], nil)
		for _, k := range []Key{gaps[3], RowKey("t", []byte("a")), RowKey("t", []byte("b"))} {
			if _, err := m.AcquireInto(r, k, Exclusive, nil); err != nil {
				t.Fatal(err)
			}
		}
		// race runs release beside two goroutines that each split every
		// scanned gap once.
		race := func(phase string, release func(*core.Txn)) {
			var wg sync.WaitGroup
			start := make(chan struct{})
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i, src := range gaps {
						m.Inherit(src, GapKey("t", []byte(fmt.Sprintf("g%02d-%s-%d", i, phase, g))))
					}
				}()
			}
			close(start)
			release(r)
			wg.Wait()
			checkOwner(t, m, r)
			checkOwner(t, m, o)
		}
		race("blocking", m.ReleaseBlocking)
		if m.Holds(r, gaps[3], Exclusive) || !m.Holds(r, gaps[3], SIRead) || !m.HoldsSIRead(r) {
			t.Fatalf("round %d: after ReleaseBlocking the reader should hold its gap SIREADs only", round)
		}
		race("all", m.ReleaseAll)
		m.ReleaseAll(o)
		if listed(r.Locks()) != 0 || listed(o.Locks()) != 0 {
			t.Fatalf("round %d: released owners list %d and %d entries", round, listed(r.Locks()), listed(o.Locks()))
		}
		if st := m.StatsSnapshot(); st.Keys != 0 || st.Owners != 0 {
			t.Fatalf("round %d: lock table not drained: %+v", round, st)
		}
		mgr.Abort(r)
		mgr.Abort(o)
	}
}

// TestInheritMovesPageExclusive: a page's EXCLUSIVE lock stands for its
// holder's versions, so a split hands it to the new page beside the readers'
// SIREADs, listed on its owner: ReleaseBlocking drops it and the SIREADs stay.
// A row's or a gap's EXCLUSIVE stays where it is. Splits that race the
// holder's ReleaseBlocking leave it holding nothing.
func TestInheritMovesPageExclusive(t *testing.T) {
	mgr := core.NewManager(core.DetectorBasic)
	m := NewManagerShards(true, 8)
	w, r := mgr.Begin(core.SerializableSI), mgr.Begin(core.SerializableSI)
	for _, c := range []struct {
		src, dst Key
		moves    bool
	}{
		{PageKey("t", 1), PageKey("t", 2), true},
		{RowKey("t", []byte("a")), RowKey("t", []byte("b")), false},
		{GapKey("t", []byte("a")), GapKey("t", []byte("b")), false},
	} {
		if _, err := m.AcquireInto(r, c.src, SIRead, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := m.AcquireInto(w, c.src, Exclusive, nil); err != nil {
			t.Fatal(err)
		}
		if !m.Inherit(c.src, c.dst) {
			t.Fatalf("%v: Inherit reports no holder", c.src)
		}
		if got := m.Holds(w, c.dst, Exclusive); got != c.moves {
			t.Errorf("%v → %v: EXCLUSIVE moved %v, want %v", c.src, c.dst, got, c.moves)
		}
		if !m.Holds(r, c.dst, SIRead) {
			t.Errorf("%v → %v: SIREAD not moved", c.src, c.dst)
		}
	}
	checkOwner(t, m, w)
	checkOwner(t, m, r)
	m.ReleaseBlocking(w)
	if listed(w.Locks()) != 0 || m.Holds(w, PageKey("t", 2), Exclusive) {
		t.Fatalf("after ReleaseBlocking the writer lists %d entries", listed(w.Locks()))
	}
	if !m.Holds(r, PageKey("t", 2), SIRead) {
		t.Fatal("the writer's release took the reader's inherited SIREAD")
	}
	m.ReleaseAll(r)
	if st := m.StatsSnapshot(); st.Keys != 0 || st.Owners != 0 {
		t.Fatalf("lock table not drained: %+v", st)
	}

	for round := 0; round < 100; round++ {
		w := mgr.Begin(core.SerializableSI)
		src := PageKey("t", 1)
		if _, err := m.AcquireInto(w, src, Exclusive, nil); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := uint32(0); g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Inherit(src, PageKey("t", 2+g))
			}()
		}
		m.ReleaseBlocking(w)
		wg.Wait()
		checkOwner(t, m, w)
		if st := m.StatsSnapshot(); listed(w.Locks()) != 0 || st.Keys != 0 {
			t.Fatalf("round %d: after ReleaseBlocking the writer lists %d entries, the table keeps %d keys", round, listed(w.Locks()), st.Keys)
		}
		mgr.Abort(w)
	}
}

// TestInheritMovesGapShared: a scanner's SHARED gap lock follows a split of
// the gap onto the new gap — the scanner's own insert splits it, since
// another's SHARED lock blocks the insert — listed on its owner, so
// ReleaseBlocking drops it; it does not follow onto the new key's row, nor
// from a row. Splits that race the holder's ReleaseBlocking leave it holding
// nothing.
func TestInheritMovesGapShared(t *testing.T) {
	mgr := core.NewManager(core.DetectorBasic)
	m := NewManagerShards(true, 8)
	s := mgr.Begin(core.SerializableSI)
	for _, c := range []struct {
		src, dst Key
		moves    bool
	}{
		{GapKey("t", []byte("m")), GapKey("t", []byte("c")), true},
		{SupremumGapKey("t"), GapKey("t", []byte("z")), true},
		{GapKey("t", []byte("m")), RowKey("t", []byte("c")), false},
		{RowKey("t", []byte("a")), RowKey("t", []byte("b")), false},
	} {
		if _, err := m.AcquireInto(s, c.src, Shared, nil); err != nil {
			t.Fatal(err)
		}
		if got := m.Inherit(c.src, c.dst); got != c.moves {
			t.Errorf("%v → %v: Inherit reports a holder %v, want %v", c.src, c.dst, got, c.moves)
		}
		if got := m.Holds(s, c.dst, Shared); got != c.moves {
			t.Errorf("%v → %v: SHARED moved %v, want %v", c.src, c.dst, got, c.moves)
		}
	}
	checkOwner(t, m, s)
	m.ReleaseBlocking(s)
	if st := m.StatsSnapshot(); listed(s.Locks()) != 0 || st.Keys != 0 {
		t.Fatalf("after ReleaseBlocking the scanner lists %d entries, the table keeps %d keys", listed(s.Locks()), st.Keys)
	}
	mgr.Abort(s)

	for round := 0; round < 100; round++ {
		s := mgr.Begin(core.SerializableSI)
		src := GapKey("t", []byte("m"))
		if _, err := m.AcquireInto(s, src, Shared, nil); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := byte(0); g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Inherit(src, GapKey("t", []byte{'c' + g}))
			}()
		}
		m.ReleaseBlocking(s)
		wg.Wait()
		checkOwner(t, m, s)
		if st := m.StatsSnapshot(); listed(s.Locks()) != 0 || st.Keys != 0 {
			t.Fatalf("round %d: after ReleaseBlocking the scanner lists %d entries, the table keeps %d keys", round, listed(s.Locks()), st.Keys)
		}
		mgr.Abort(s)
	}
}
