package ssidb

import (
	"fmt"
	"reflect"
	"testing"

	"ssi/internal/lock"
)

// firstNonZero returns the index of the first non-zero element within s's
// whole capacity, or -1.
func firstNonZero[T any](s []T) int {
	s = s[:cap(s)]
	for i := range s {
		if !reflect.ValueOf(&s[i]).Elem().IsZero() {
			return i
		}
	}
	return -1
}

// TestPooledScanContextPinsNothing is the no-pinning half of the recycled
// scan context's contract: once Scan has returned, the context it handed
// back holds only zero values over the whole capacity of its buffers — no
// transaction record (visible creators, newer writers, lock rivals), no
// version data and no tree or lock key — so an idle pool keeps nothing
// reachable that vacuum or transaction cleanup has let go of. A concurrent
// uncommitted writer makes sure the writer-side buffers are used too.
func TestPooledScanContextPinsNothing(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	for name, gran := range map[string]Granularity{"row": GranularityRow, "page": GranularityPage} {
		for _, iso := range []Isolation{SnapshotIsolation, SerializableSI, S2PL} {
			t.Run(fmt.Sprintf("%s/%v", name, iso), func(t *testing.T) {
				db := Open(Options{Granularity: gran, PageMaxKeys: 8, TableShards: 2, Detector: DetectorPrecise})
				if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
					for i := 0; i < 300; i++ {
						if err := tx.Put("t", key(i), []byte("v")); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if iso != S2PL { // whose scan would wait for the writer
					w := db.Begin(SerializableSI)
					defer w.Abort()
					if err := w.Put("t", key(7), []byte("w")); err != nil {
						t.Fatal(err)
					}
				}
				// A pool may miss (and drops puts at random under the race
				// detector), so scan until a used context comes back.
				for attempt := 0; attempt < 100; attempt++ {
					r := db.Begin(iso)
					n := 0
					if err := r.ScanLimit("t", nil, key(290), 280, func(k, v []byte) bool { n++; return true }); err != nil {
						t.Fatal(err)
					}
					r.Abort()
					if n != 280 {
						t.Fatalf("scan saw %d rows, want 280", n)
					}
					sc := scanCtxPool.Get().(*scanCtx)
					if cap(sc.items) == 0 {
						continue
					}
					if iso != SnapshotIsolation && cap(sc.keys) == 0 {
						t.Errorf("a locking scan left no key buffer in its context")
					}
					if iso == SerializableSI && cap(sc.writers) == 0 {
						// A page scan meets the writer in its first round, on
						// the descent path to the range's start.
						t.Errorf("a scan beside an uncommitted writer left no writer buffer")
					}
					if len(sc.items)+len(sc.keys)+len(sc.writers) != 0 || sc.end != (scanEnd{}) || sc.limitKey != "" || sc.limited {
						t.Errorf("pooled context is not reset: %d items, %d keys, %d writers, end %q, limit %q",
							len(sc.items), len(sc.keys), len(sc.writers), sc.end.key, sc.limitKey)
					}
					if i := firstNonZero(sc.items); i >= 0 {
						t.Errorf("pooled item buffer still holds %+v at %d of %d", sc.items[:cap(sc.items)][i], i, cap(sc.items))
					}
					if i := firstNonZero(sc.keys); i >= 0 {
						t.Errorf("pooled key buffer still holds %v at %d of %d", sc.keys[:cap(sc.keys)][i], i, cap(sc.keys))
					}
					if i := firstNonZero(sc.writers); i >= 0 {
						t.Errorf("pooled writer buffer still holds a transaction at %d of %d", i, cap(sc.writers))
					}
					return
				}
				t.Fatal("no used scan context came back from the pool in 100 scans")
			})
		}
	}
}

// TestScanOfOwnWritesTakesGapsOnly: a locking scan over rows the transaction
// wrote takes only their gaps' locks — SIREAD at SSI, Shared at S2PL (§3.7.3:
// its own versions are its write locks, and carry the conflict) — and a row
// lock on every other row.
func TestScanOfOwnWritesTakesGapsOnly(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%d", i)) }
	for _, c := range []struct {
		iso  Isolation
		mode lock.Mode
	}{{SerializableSI, lock.SIRead}, {S2PL, lock.Shared}} {
		t.Run(c.iso.String(), func(t *testing.T) {
			db := Open(Options{Detector: DetectorPrecise, TableShards: 2})
			if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
				for i := 0; i < 4; i++ {
					if err := tx.Put("t", key(i), []byte("v0")); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			tx := db.Begin(c.iso)
			defer tx.Abort()
			written := map[int]bool{1: true, 2: true}
			for i := range written {
				if err := tx.Put("t", key(i), []byte("w")); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Scan("t", nil, nil, func(k, v []byte) bool { return true }); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if got := db.locks.Holds(tx.t, lock.RowKey("t", key(i)), c.mode); got == written[i] {
					t.Errorf("row %s: %v held %v, written by the scanner %v", key(i), c.mode, got, written[i])
				}
				if !db.locks.Holds(tx.t, lock.GapKey("t", key(i)), c.mode) {
					t.Errorf("gap before %s: no %v", key(i), c.mode)
				}
			}
		})
	}
}

// scannedAC opens a database holding the rows a and c and returns an SSI
// transaction that has scanned [from, to) of it.
func scannedAC(t *testing.T, from, to string) (*DB, *Txn) {
	t.Helper()
	db := Open(Options{Detector: DetectorPrecise})
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
		if err := tx.Put("t", []byte("a"), []byte("v")); err != nil {
			return err
		}
		return tx.Put("t", []byte("c"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	s := db.Begin(SerializableSI)
	if err := s.Scan("t", []byte(from), []byte(to), func(k, v []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	return db, s
}

// TestDeleteBesideScanMarksNothing: a Delete of a key the index holds is a row
// write, and takes no gap lock. s scans [b, z) over the rows a and c; a
// Delete of a, outside the range, marks no edge with s, though the gap before
// c, a's successor, is s's; a Delete of c, inside it, marks s → deleter.
func TestDeleteBesideScanMarksNothing(t *testing.T) {
	db, s := scannedAC(t, "b", "z")
	defer s.Abort()
	for _, c := range []struct {
		key  string
		edge bool
	}{{"a", false}, {"c", true}} {
		d := db.Begin(SerializableSI)
		if err := d.Delete("t", []byte(c.key)); err != nil {
			t.Fatal(err)
		}
		if out, in := db.mgr.HasOutConflict(s.t), db.mgr.HasInConflict(d.t); out != c.edge || in != c.edge {
			t.Errorf("Delete(%s): scanner.out %v, deleter.in %v; want %v", c.key, out, in, c.edge)
		}
		d.Abort()
	}
}

// TestRolledBackInsertKeepsScannerRead: a scan that passed before a key entered
// the tree read the key's absence, and keeps that read when the insert rolls
// back and leaves the key with no version: every later write of the key, a row
// write, marks scanner → writer. s scans [a, m) over the rows a and c; an
// insert of b rolls back; then w writes b.
func TestRolledBackInsertKeepsScannerRead(t *testing.T) {
	for _, c := range []struct {
		name  string
		write func(*Txn) error
	}{
		{"Put", func(w *Txn) error { return w.Put("t", []byte("b"), []byte("w")) }},
		{"Insert", func(w *Txn) error { return w.Insert("t", []byte("b"), []byte("w")) }},
		{"Delete", func(w *Txn) error { return w.Delete("t", []byte("b")) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, s := scannedAC(t, "a", "m")
			defer s.Abort()
			a := db.Begin(SerializableSI)
			if err := a.Insert("t", []byte("b"), []byte("a")); err != nil {
				t.Fatal(err)
			}
			a.Abort()
			w := db.Begin(SerializableSI)
			defer w.Abort()
			if err := c.write(w); err != nil {
				t.Fatal(err)
			}
			if !db.mgr.HasOutConflict(s.t) || !db.mgr.HasInConflict(w.t) {
				t.Errorf("scanner → writer not marked: scanner.out %v, writer.in %v", db.mgr.HasOutConflict(s.t), db.mgr.HasInConflict(w.t))
			}
		})
	}
}
