package ssidb

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ssi/internal/lock"
)

// The tests here drive an S2PL scan's locking (Txn.scanLocked): each round
// takes its Shared locks in key order under the partition latches, and the
// first lock it cannot take without waiting — another transaction's lock, or
// the version of a writer that still holds its row — ends the collection; the
// scan waits for it unlatched and collects again.

// scanRows scans [from, to) of table t, at most limit rows (0: no limit), and
// returns the rows as "key=value".
func scanRows(tx *Txn, from, to string, limit int) ([]string, error) {
	var rows []string
	fn := func(k, v []byte) bool { rows = append(rows, string(k)+"="+string(v)); return true }
	if limit > 0 {
		err := tx.ScanLimit("t", []byte(from), []byte(to), limit, fn)
		return rows, err
	}
	err := tx.Scan("t", []byte(from), []byte(to), fn)
	return rows, err
}

// TestS2PLScanWaitsInKeyOrder: an S2PL scan that meets a row another
// transaction holds waits for it holding the locks of the keys before it
// only — none on a later row or gap — and, once the holder has written the
// row and committed, returns every row once, with the row's new value.
func TestS2PLScanWaitsInKeyOrder(t *testing.T) {
	db := Open(Options{})
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
		for _, k := range []string{"a", "b", "c", "d", "e"} {
			if err := tx.Put("t", []byte(k), []byte("v0")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	holder := db.Begin(SnapshotIsolation)
	if _, _, err := holder.GetForUpdate("t", []byte("c")); err != nil {
		t.Fatal(err)
	}
	scanner := db.Begin(S2PL)
	defer scanner.Abort()
	var rows []string
	parks := db.StatsSnapshot().LockParks
	done := async(func() (err error) {
		rows, err = scanRows(scanner, "a", "z", 0)
		return err
	})
	awaitParks(t, db, parks)
	for _, k := range []string{"a", "b"} {
		if !db.locks.Holds(scanner.t, lock.RowKey("t", []byte(k)), lock.Shared) {
			t.Errorf("waiting for c, the scan holds no Shared lock on %s", k)
		}
	}
	for _, k := range []string{"d", "e"} {
		for _, key := range []lock.Key{lock.RowKey("t", []byte(k)), lock.GapKey("t", []byte(k))} {
			if db.locks.Holds(scanner.t, key, lock.Shared) {
				t.Errorf("waiting for c, the scan holds %v", key)
			}
		}
	}
	if err := holder.Put("t", []byte("c"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := result(t, done); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(rows), "[a=v0 b=v0 c=v1 d=v0 e=v0]"; got != want {
		t.Fatalf("the scan returned %s, want %s", got, want)
	}
}

// TestS2PLScanWaitsInTwoRounds: a scan of 300 rows runs in two rounds
// (mvcc.ScanChunk); an S2PL Insert holds the first round's k010x by its
// version and its gap lock, and a SI Put holds the second's k280 by its
// version. The scan parks on each in turn, and returns the range in order,
// each row once, with both committed writes — the full range and a limited
// one alike.
func TestS2PLScanWaitsInTwoRounds(t *testing.T) {
	for _, c := range []struct {
		name  string
		limit int
		rows  int
	}{{"Scan", 0, 301}, {"ScanLimit", 290, 290}} {
		t.Run(c.name, func(t *testing.T) {
			db := Open(Options{})
			if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
				for i := 0; i < 300; i++ {
					if err := tx.Put("t", []byte(fmt.Sprintf("k%03d", i)), []byte("v0")); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			inserter, putter := db.Begin(S2PL), db.Begin(SnapshotIsolation)
			if err := inserter.Insert("t", []byte("k010x"), []byte("new")); err != nil {
				t.Fatal(err)
			}
			if err := putter.Put("t", []byte("k280"), []byte("v1")); err != nil {
				t.Fatal(err)
			}
			scanner := db.Begin(S2PL)
			defer scanner.Abort()
			var rows []string
			parks := db.StatsSnapshot().LockParks
			done := async(func() (err error) {
				rows, err = scanRows(scanner, "k", "l", c.limit)
				return err
			})
			for _, w := range []*Txn{inserter, putter} {
				awaitParks(t, db, parks)
				parks = db.StatsSnapshot().LockParks
				select {
				case err := <-done:
					t.Fatalf("the scan returned %v while a writer held a row", err)
				default:
				}
				if err := w.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if err := result(t, done); err != nil {
				t.Fatal(err)
			}
			if len(rows) != c.rows {
				t.Fatalf("the scan returned %d rows, want %d", len(rows), c.rows)
			}
			seen := map[string]bool{}
			last := ""
			for i, r := range rows {
				k, _, _ := strings.Cut(r, "=")
				if i > 0 && k <= last {
					t.Fatalf("row %d, %s, follows %s", i, k, last)
				}
				last, seen[r] = k, true
			}
			for _, r := range []string{"k010x=new", "k280=v1"} {
				if !seen[r] {
					t.Errorf("the scan does not show the committed %s", r)
				}
			}
		})
	}
}

// TestS2PLInsertKeepsItsSplitGap: an S2PL transaction that inserts into a
// range it scanned keeps its Shared lock on both halves of the gap the insert
// splits (lock.Manager.Inherit), so another transaction's insert into the
// split-off half waits for it, and its rescan of the range sees no phantom.
func TestS2PLInsertKeepsItsSplitGap(t *testing.T) {
	db := Open(Options{})
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
		for _, k := range []string{"a", "m"} {
			if err := tx.Put("t", []byte(k), []byte("v0")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	scanner := db.Begin(S2PL)
	defer scanner.Abort()
	rows, err := scanRows(scanner, "a", "m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := scanner.Insert("t", []byte("c"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if !db.locks.Holds(scanner.t, lock.GapKey("t", []byte("c")), lock.Shared) {
		t.Error("the scanner's insert of c left it no Shared lock on the gap before c")
	}
	inserter := db.Begin(S2PL)
	defer inserter.Abort()
	parks := db.StatsSnapshot().LockParks
	done := async(func() error { return inserter.Put("t", []byte("b"), []byte("v1")) })
	for deadline := time.Now().Add(5 * time.Second); db.StatsSnapshot().LockParks <= parks; {
		select {
		case err := <-done:
			t.Fatalf("the insert of b into the gap the scanner split returned %v without waiting for it", err)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the insert of b neither returned nor parked")
		}
	}
	again, err := scanRows(scanner, "a", "m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(rows, again), "[a=v0] [a=v0 c=v1]"; got != want {
		t.Fatalf("the scanner's scan and rescan of [a, m): %s, want %s", got, want)
	}
	if err := scanner.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := result(t, done); err != nil {
		t.Fatal(err)
	}
	if err := inserter.Commit(); err != nil {
		t.Fatal(err)
	}
}
