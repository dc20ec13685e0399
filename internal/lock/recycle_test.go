package lock

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"ssi/internal/core"
	"ssi/internal/raceflag"
)

// TestDrainedKeyMapDetaches: an owner left holding nothing by a non-terminal
// release — the commit of every write-only or S2PL transaction — gives its
// list of entries back instead of carrying it for as long as the versions it
// wrote keep its record alive; a SIREAD holder keeps its list until the
// terminal release; and the owner can go on acquiring either way.
func TestDrainedKeyMapDetaches(t *testing.T) {
	mgr := core.NewManager(core.DetectorBasic)
	m := NewManagerShards(true, 8)
	key := func(i int) Key { return RowKey("t", []byte(fmt.Sprintf("k%d", i))) }

	w := mgr.Begin(core.SnapshotIsolation)
	for i := 0; i < 100; i++ {
		if _, err := m.AcquireInto(w, key(i), Exclusive, nil); err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseBlocking(w)
	checkBooks(t, m, w)
	if os := stateOf(w); os.Held != nil || os.Released() {
		t.Fatalf("after a write-only commit: list %v (want nil), released %v (want false)", os.Held, os.Released())
	}
	if _, err := m.AcquireInto(w, key(1), Exclusive, nil); err != nil {
		t.Fatal(err)
	}
	if !m.Holds(w, key(1), Exclusive) || listed(stateOf(w)) != 1 {
		t.Fatalf("acquire after the drain: holds=%v, %d keys recorded, want true and 1", m.Holds(w, key(1), Exclusive), listed(stateOf(w)))
	}
	m.ReleaseAll(w)

	r := mgr.Begin(core.SerializableSI)
	if _, err := m.AcquireInto(r, key(1), SIRead, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AcquireInto(r, key(2), Exclusive, nil); err != nil {
		t.Fatal(err)
	}
	m.ReleaseBlocking(r)
	checkBooks(t, m, r)
	if got := listed(stateOf(r)); got != 1 || !m.HoldsSIRead(r) {
		t.Fatalf("SIREAD holder after commit: %d keys recorded, HoldsSIRead=%v, want 1 and true", got, m.HoldsSIRead(r))
	}
	// Inheritance lands in the list the owner kept.
	m.Inherit(key(1), key(3))
	if !m.Holds(r, key(3), SIRead) || listed(stateOf(r)) != 2 {
		t.Fatalf("inherited SIREAD not recorded: holds=%v, %d keys", m.Holds(r, key(3), SIRead), listed(stateOf(r)))
	}
	checkBooks(t, m, r)
	m.ReleaseAll(r)
	if stateOf(r).Held != nil {
		t.Fatal("list still attached after ReleaseAll")
	}
	if st := m.StatsSnapshot(); st.Keys != 0 || st.Owners != 0 {
		t.Fatalf("lock table not drained: %+v", st)
	}
}

// TestEntryRecycleAllocBudget: the lock table builds no entry it could have
// recycled, however many were freed at once. One owner's 10 000 SIREAD locks
// are released in a single ReleaseAll — the burst a batched cleanup of
// suspended transactions produces — and the next owners to lock those 10 000
// keys allocate nothing per key: no entry, no holders map, and (the drained
// list being recycled too) no bookkeeping growth.
func TestEntryRecycleAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under -race; the budget assumes it does not")
	}
	// Two collections in a row would empty the pools under the measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const n = 10000
	mgr := core.NewManager(core.DetectorBasic)
	m := NewManagerShards(true, 8)
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = RowKey("t", []byte(fmt.Sprintf("k%05d", i)))
	}
	cycle := func() {
		owner := mgr.Begin(core.SerializableSI)
		for _, k := range keys {
			if _, err := m.AcquireInto(owner, k, SIRead, nil); err != nil {
				t.Fatal(err)
			}
		}
		m.ReleaseAll(owner)
	}
	cycle() // builds the entries, and frees them in one burst

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const cycles = 3
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perKey := float64(after.Mallocs-before.Mallocs) / (cycles * n)
	t.Logf("%.4f allocs per acquire/release", perKey)
	if perKey > 0.02 { // the pool's own queue segments, a handful per burst
		t.Errorf("%.4f allocs per acquire/release of a key whose entry was just freed, want 0", perKey)
	}
	if st := m.StatsSnapshot(); st.Keys != 0 {
		t.Fatalf("lock table not drained: %+v", st)
	}
}
