package ssidb

import (
	"testing"
	"time"

	"ssi/internal/lock"
)

// A point read looks its row up before it locks (the row's own key string
// names the lock) and reads the row's state only afterwards. If the look-up
// finds nothing, the lock is named by a copy of the key and the read looks
// again: these tests put an inserter between the miss and the lock, where it
// must not be lost.

// TestGetMissThenInsertedS2PL drives the race through Get itself: the
// inserter holds the absent row's exclusive lock before it inserts, so the
// reader's Get misses, parks on its Shared lock, and is granted it only once
// the inserter has committed — it must return the inserted value.
func TestGetMissThenInsertedS2PL(t *testing.T) {
	db := Open(Options{Detector: DetectorPrecise})
	seed(t, db, "t", "a", 1) // the table exists; the key read does not
	key := []byte("k")

	ins := db.Begin(S2PL)
	if _, err := db.locks.Acquire(ins.t, lock.RowKey("t", key), lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	type result struct {
		val   []byte
		found bool
		err   error
	}
	got := make(chan result, 1)
	go func() {
		rd := db.Begin(S2PL)
		v, ok, err := rd.Get("t", key)
		got <- result{v, ok, err}
		rd.Abort()
	}()
	for db.StatsSnapshot().LockParks == 0 {
		select {
		case r := <-got:
			t.Fatalf("Get returned %+v while the inserter held the row's lock", r)
		case <-time.After(time.Millisecond):
		}
	}
	if err := ins.Insert("t", key, i64(7)); err != nil {
		t.Fatal(err)
	}
	if err := ins.Commit(); err != nil {
		t.Fatal(err)
	}
	if r := <-got; r.err != nil || !r.found || geti64(r.val) != 7 {
		t.Fatalf("Get after losing the race to the inserter = %+v, want the inserted 7", r)
	}
}

// TestGetMissThenInsertedSSI steps Get's sequence by hand — an SIREAD lock
// never waits, so there is nothing to park the real one on: snapshot, Locate
// (a miss), then the inserter commits, then lockRead and the read. The read
// must find the inserted row, invisible to the snapshot, and the reader must
// end up with the rw-antidependency to its creator; and the SIREAD lock, named
// by a copy of the key, must be the one a later writer of the row — which
// names its lock by the store's key string — finds.
func TestGetMissThenInsertedSSI(t *testing.T) {
	db := Open(Options{Detector: DetectorPrecise})
	seed(t, db, "t", "a", 1)
	key := []byte("k")
	tb := db.table("t")

	rd := db.Begin(SerializableSI)
	defer rd.Abort()
	snap := rd.readPoint()
	row, exists := tb.data.Locate(key)
	if exists {
		t.Fatal("the key has a row before anything inserted it")
	}

	ins := db.Begin(SerializableSI)
	if err := ins.Insert("t", key, i64(7)); err != nil {
		t.Fatal(err)
	}
	insRec := ins.t // the handle lets go of its record at the end
	if err := ins.Commit(); err != nil {
		t.Fatal(err)
	}

	res, err := rd.lockRead(tb, key, row, lock.SIRead, snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || len(res.NewerWriters) != 1 || res.NewerWriters[0] != insRec {
		t.Fatalf("read after the lock: found %v, newer writers %v; want the inserted row, invisible, created by the inserter", res.Found, res.NewerWriters)
	}
	if err := rd.markAsReader(res.NewerWriters); err != nil {
		t.Fatal(err)
	}
	if !db.mgr.HasOutConflict(rd.t) || !db.mgr.HasInConflict(insRec) {
		t.Errorf("rw-edge reader → inserter not marked: reader.out %v, inserter.in %v", db.mgr.HasOutConflict(rd.t), db.mgr.HasInConflict(insRec))
	}

	stored, ok := tb.data.Locate(key)
	if !ok || !db.locks.Holds(rd.t, rowKeyOf(tb, stored.Key()), lock.SIRead) {
		t.Error("the SIREAD lock taken by a copy of the key is not the lock the row's own key string names")
	}
}
