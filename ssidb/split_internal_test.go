package ssidb

import (
	"errors"
	"fmt"
	"testing"

	"ssi/internal/lock"
)

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
	if pg := tb.data.LeafPage(key(2)); !db.locks.Holds(reader.t, lock.PageKey("t", pg), lock.SIRead) {
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
		pg := tb.data.LeafPage(key(i))
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
// page-level First-Committer-Wins floor must move with them. T1 takes its
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
	oldLeaf := tb.data.LeafPage(k)
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error { return tx.Insert("t", key(5), []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	if got := tb.data.LeafPage(k); got == oldLeaf {
		t.Fatalf("k stayed on leaf %d: the insert did not move it", got)
	}
	if got := tb.data.LeafPage(key(5)); got != oldLeaf {
		t.Fatalf("the inserted key is on leaf %d, want the old leaf %d", got, oldLeaf)
	}

	if err := t1.Put("t", k, []byte("t1")); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("T1's write to the moved row: %v, want ErrWriteConflict", err)
	}
}
