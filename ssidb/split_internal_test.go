package ssidb

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ssi/internal/lock"
)

// leafOf is the page of the leaf that holds (or would hold) key: the last
// page of the path OnPath hands over.
func leafOf(tb *table, key []byte) (leaf uint32) {
	tb.data.OnPath(key, nil, false, func(path []uint32, _ bool) { leaf = path[len(path)-1] })
	return leaf
}

// TestImplicitTableSplitInheritsSIRead verifies that a table created by its
// first use (db.table, the only way a table comes to exist) under
// GranularityPage gets the page-split hook: a reader's SIREAD page coverage
// must follow rows that a split moves to a new page, transitively across
// further splits, or later writers to the moved rows would escape conflict
// detection.
func TestImplicitTableSplitInheritsSIRead(t *testing.T) {
	// All keys share one B+tree: page mode's default of a single partition.
	db := Open(Options{Granularity: GranularityPage, PageMaxKeys: 4, Detector: DetectorPrecise})

	key := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }

	// Implicit creation: the first Put routes through db.table("t").
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
		for i := 0; i < 4; i++ {
			if err := tx.Put("t", key(i), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// An SSI reader scans everything, taking SIREAD on every leaf page.
	reader := db.Begin(SerializableSI)
	if err := reader.Scan("t", nil, nil, func(k, v []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	tb := db.table("t")
	if pg := leafOf(tb, key(2)); !db.locks.Holds(reader.t, lock.PageKey("t", pg), lock.SIRead) {
		t.Fatalf("reader does not hold SIREAD on leaf page %d before split", pg)
	}

	// Concurrent inserts force repeated leaf splits.
	pagesBefore := db.TableStats("t").Pages
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
		for i := 4; i < 20; i++ {
			if err := tx.Put("t", key(i), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if db.TableStats("t").Pages <= pagesBefore {
		t.Fatalf("no split happened (pages %d -> %d); test needs smaller pages",
			pagesBefore, db.TableStats("t").Pages)
	}

	// Every leaf page descends from a page the reader covered, so the
	// inherited SIREAD must cover all of them — in particular the pages the
	// original rows moved to.
	for i := 0; i < 20; i++ {
		pg := leafOf(tb, key(i))
		if !db.locks.Holds(reader.t, lock.PageKey("t", pg), lock.SIRead) {
			t.Fatalf("SIREAD coverage lost: key %s now on page %d without reader's SIREAD", key(i), pg)
		}
	}

	// And the coverage is live, not vestigial: a writer updating a moved
	// row must observe the reader as a rival (rw-antidependency source).
	writer := db.Begin(SerializableSI)
	if err := writer.Put("t", key(1), []byte("w")); err != nil {
		t.Fatal(err)
	}
	if !db.mgr.HasInConflict(writer.t) {
		t.Fatal("writer on split-moved row did not record rw-conflict with reader")
	}
	writer.Abort()
	reader.Abort()
}

// TestPageSplitInheritsWriteStamps: a split moves rows to a new page, and the
// page-level First-Committer-Wins stamps must move with them. T1 takes its
// snapshot, T2 then commits a write to row k, and an insert splits k's leaf so
// that k moves to the new leaf while the inserted key stays on the old one
// (only T2's stamp, inherited at the split, can put a commit on the new page).
// T1's write to k must still lose to T2's.
func TestPageSplitInheritsWriteStamps(t *testing.T) {
	db := Open(Options{Granularity: GranularityPage, PageMaxKeys: 4})
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }
	// An ascending load fills the one leaf to PageMaxKeys: k10 … k40.
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
		for i := 10; i <= 40; i += 10 {
			if err := tx.Put("t", key(i), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	k := key(40)

	t1 := db.Begin(SnapshotIsolation)
	if _, _, err := t1.Get("t", key(10)); err != nil { // materialise the snapshot
		t.Fatal(err)
	}
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error { return tx.Put("t", k, []byte("t2")) }); err != nil {
		t.Fatal(err)
	}

	tb := db.table("t")
	oldLeaf := leafOf(tb, k)
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error { return tx.Insert("t", key(5), []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	if got := leafOf(tb, k); got == oldLeaf {
		t.Fatalf("k stayed on leaf %d: the insert did not move it", got)
	}
	if got := leafOf(tb, key(5)); got != oldLeaf {
		t.Fatalf("the inserted key is on leaf %d, want the old leaf %d", got, oldLeaf)
	}

	if err := t1.Put("t", k, []byte("t1")); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("T1's write to the moved row: %v, want ErrWriteConflict", err)
	}
}

// TestPageSplitKeepsWriterLock: a page write's claim asks the lock table
// nothing, because the writer of a row holds the row's leaf until it ends —
// also once its own insert has split the leaf and moved the row to a new
// page, which the split hands it (lock.Manager.Inherit). With PageMaxKeys 4
// and the full leaf a–d, T2 writes k, which a split leaves on a page of its
// own (the right edge), or T2 writes d and then inserts bb, which moves d
// (a middle split). T10, whose snapshot precedes T2's write, then writes the
// moved key: it waits for T2 and loses to it. An S2PL read of the moved key
// waits for T2 too, and an SSI scan of the new page marks scanner → T2.
func TestPageSplitKeepsWriterLock(t *testing.T) {
	loaded := func(t *testing.T) (*DB, *table) {
		t.Helper()
		db := Open(Options{Granularity: GranularityPage, PageMaxKeys: 4, Detector: DetectorPrecise})
		if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
			for _, k := range []string{"a", "b", "c", "d"} {
				if err := tx.Put("t", []byte(k), []byte("v0")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return db, db.table("t")
	}
	// split has t2 write so that moved leaves the leaf it wrote, and checks
	// that it did.
	split := func(t *testing.T, tb *table, t2 *Txn, moved string, writes ...string) {
		t.Helper()
		leaf := leafOf(tb, []byte("a"))
		for _, k := range writes {
			if err := t2.Put("t", []byte(k), []byte("t2")); err != nil {
				t.Fatal(err)
			}
		}
		if got := leafOf(tb, []byte(moved)); got == leaf {
			t.Fatalf("%s stayed on leaf %d: no split moved it", moved, got)
		}
	}
	// waits starts op and checks that it parks in the lock table before it
	// returns.
	waits := func(t *testing.T, db *DB, what string, op func() error) <-chan error {
		t.Helper()
		parks := db.StatsSnapshot().LockParks
		done := async(op)
		for deadline := time.Now().Add(5 * time.Second); db.StatsSnapshot().LockParks <= parks; time.Sleep(time.Millisecond) {
			select {
			case err := <-done:
				t.Fatalf("%s returned %v without waiting for T2", what, err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s neither returned nor parked in 5s", what)
			}
		}
		return done
	}
	shapes := []struct {
		name   string
		moved  string
		writes []string
	}{
		{"right-edge", "k", []string{"k"}},
		{"middle", "d", []string{"d", "bb"}},
	}
	for _, sh := range shapes {
		for _, iso := range []Isolation{SnapshotIsolation, SerializableSI} {
			t.Run(fmt.Sprintf("%s/%v", sh.name, iso), func(t *testing.T) {
				db, tb := loaded(t)
				t10 := db.Begin(iso)
				defer t10.Abort()
				if _, _, err := t10.Get("t", []byte(sh.moved)); err != nil {
					t.Fatal(err)
				}
				t2 := db.Begin(iso)
				split(t, tb, t2, sh.moved, sh.writes...)
				put := waits(t, db, "T10's Put", func() error { return t10.Put("t", []byte(sh.moved), []byte("t10")) })
				if err := t2.Commit(); err != nil {
					t.Fatal(err)
				}
				if err := result(t, put); !errors.Is(err, ErrWriteConflict) {
					t.Fatalf("T10's Put of %s after T2 committed: %v, want ErrWriteConflict", sh.moved, err)
				}
			})
		}
	}
	t.Run("S2PL-read", func(t *testing.T) {
		db, tb := loaded(t)
		t2 := db.Begin(S2PL)
		split(t, tb, t2, "k", "k")
		r := db.Begin(S2PL)
		defer r.Abort()
		var val []byte
		get := waits(t, db, "the S2PL Get", func() (err error) {
			val, _, err = r.Get("t", []byte("k"))
			return err
		})
		if err := t2.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := result(t, get); err != nil || string(val) != "t2" {
			t.Fatalf("the S2PL Get after T2 committed: %q, %v; want T2's value", val, err)
		}
	})
	t.Run("SSI-scan", func(t *testing.T) {
		db, tb := loaded(t)
		t2 := db.Begin(SerializableSI)
		defer t2.Abort()
		split(t, tb, t2, "k", "k")
		s := db.Begin(SerializableSI)
		defer s.Abort()
		if err := s.Scan("t", []byte("k"), nil, func(k, v []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if !db.mgr.HasOutConflict(s.t) || !db.mgr.HasInConflict(t2.t) {
			t.Fatalf("scanner → T2 not marked: scanner.out %v, T2.in %v", db.mgr.HasOutConflict(s.t), db.mgr.HasInConflict(t2.t))
		}
	})
}
