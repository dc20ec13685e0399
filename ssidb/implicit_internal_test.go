package ssidb

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ssi/internal/lock"
)

// The tests here drive the contended and mixed paths of implicit row locks
// (locks_row.go; package lock, "Implicit row locks"): a write's uncommitted
// version is its write lock, which a transaction that must wait converts into
// a lock-table entry before it waits in the table.

// implicitDB opens a database of one committed row k = "v0".
func implicitDB(t *testing.T, opts Options) *DB {
	t.Helper()
	db := Open(opts)
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error { return tx.Put("t", []byte("k"), []byte("v0")) }); err != nil {
		t.Fatal(err)
	}
	return db
}

// async runs op on its own goroutine and returns its error's channel.
func async(op func() error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- op() }()
	return done
}

// awaitParks waits until the lock table has parked more than parks requests:
// an operation started on another goroutine is waiting in the table.
func awaitParks(t *testing.T, db *DB, parks uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); db.StatsSnapshot().LockParks <= parks; {
		if time.Now().After(deadline) {
			t.Fatal("no request parked in the lock table")
		}
		time.Sleep(time.Millisecond)
	}
}

// result waits for an operation's error.
func result(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("operation still blocked after 5s")
		return nil
	}
}

// TestImplicitLocksDeadlock: two SI writers, or two S2PL ones, that cross on
// two existing rows — each holding one row by its uncommitted version and
// writing the other's — deadlock, and the waits-for graph says so at once:
// the conversions put both waits in the table, so exactly one writer, the one
// that closes the cycle, fails with ErrDeadlock, long before the wait
// timeout, and the other's write then goes through.
func TestImplicitLocksDeadlock(t *testing.T) {
	for _, iso := range []Isolation{SnapshotIsolation, S2PL} {
		t.Run(iso.String(), func(t *testing.T) {
			db := implicitDB(t, Options{LockWaitTimeout: time.Minute})
			if err := db.Run(SnapshotIsolation, func(tx *Txn) error { return tx.Put("t", []byte("j"), []byte("v0")) }); err != nil {
				t.Fatal(err)
			}
			t1, t2 := db.Begin(iso), db.Begin(iso)
			if err := t1.Put("t", []byte("j"), []byte("t1")); err != nil {
				t.Fatal(err)
			}
			if err := t2.Put("t", []byte("k"), []byte("t2")); err != nil {
				t.Fatal(err)
			}
			if st := db.StatsSnapshot(); st.LockedKeys != 0 {
				t.Fatalf("uncontended writes left %d lock-table entries, want none", st.LockedKeys)
			}
			parks := db.StatsSnapshot().LockParks
			first := async(func() error { return t1.Put("t", []byte("k"), []byte("t1")) })
			awaitParks(t, db, parks)
			start := time.Now()
			if err := t2.Put("t", []byte("j"), []byte("t2")); !errors.Is(err, ErrDeadlock) {
				t.Fatalf("the write closing the cycle returned %v, want ErrDeadlock", err)
			}
			if took := time.Since(start); took > 10*time.Second {
				t.Fatalf("the deadlock took %v to detect", took)
			}
			if err := result(t, first); err != nil {
				t.Fatalf("the surviving write returned %v", err)
			}
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			if st := db.StatsSnapshot(); st.LockTimeouts != 0 || st.LockedKeys != 0 {
				t.Fatalf("after the episode: %d timeouts, %d locked keys; want none", st.LockTimeouts, st.LockedKeys)
			}
		})
	}
}

// TestImplicitLockAbortedHolder: a writer blocked behind an uncommitted
// version whose writer aborts installs on the rolled-back head. It waited —
// it did not stack its version on the aborter's — and the aborter, which
// wrote the row twice, rolls back only its own version: the waiter's write is
// what commits, and a snapshot taken before it reads the row as it was before
// either writer.
func TestImplicitLockAbortedHolder(t *testing.T) {
	db := implicitDB(t, Options{})
	aborter := db.Begin(SerializableSI)
	for _, v := range []string{"a1", "a2"} {
		if err := aborter.Put("t", []byte("k"), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	waiter := db.Begin(SnapshotIsolation)
	parks := db.StatsSnapshot().LockParks
	put := async(func() error { return waiter.Put("t", []byte("k"), []byte("w")) })
	awaitParks(t, db, parks)
	select {
	case err := <-put:
		t.Fatalf("the write returned %v while the row's holder was running", err)
	default:
	}
	before := db.Begin(SnapshotIsolation)
	if _, _, err := before.Get("t", []byte("x")); err != nil { // takes the snapshot
		t.Fatal(err)
	}
	if err := aborter.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := result(t, put); err != nil {
		t.Fatalf("the write behind the aborted holder returned %v", err)
	}
	if err := waiter.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _, err := before.Get("t", []byte("k")); err != nil || string(v) != "v0" {
		t.Fatalf("a snapshot before both writers reads %q, %v; want v0", v, err)
	}
	before.Abort()
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
		v, _, err := tx.Get("t", []byte("k"))
		if err == nil && string(v) != "w" {
			t.Errorf("the row reads %q after the waiter committed, want w", v)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestExplicitGrantsWaitForImplicitLocks: once a SI Put has installed its
// version, every explicit blocking lock on the row waits for it — a
// GetForUpdate, an S2PL Get, an S2PL Scan and an S2PL Put, each granted
// before it looks at the row and then converting the writer's implicit lock
// — and each then sees the committed write. The other way round, a SI Put on a row an S2PL
// transaction holds Shared finds the entry with its probe and waits for it.
func TestExplicitGrantsWaitForImplicitLocks(t *testing.T) {
	for _, c := range []struct {
		name string
		iso  Isolation
		op   func(tx *Txn) error
	}{
		{"GetForUpdate", SnapshotIsolation, func(tx *Txn) error {
			v, _, err := tx.GetForUpdate("t", []byte("k"))
			if err == nil && string(v) != "a" {
				return errors.New("read " + string(v) + ", want the committed a")
			}
			return err
		}},
		{"S2PL Get", S2PL, func(tx *Txn) error {
			v, _, err := tx.Get("t", []byte("k"))
			if err == nil && string(v) != "a" {
				return errors.New("read " + string(v) + ", want the committed a")
			}
			return err
		}},
		{"S2PL Scan", S2PL, func(tx *Txn) error {
			rows, err := scanRows(tx, "", "", 0)
			if err == nil && fmt.Sprint(rows) != "[k=a]" {
				return fmt.Errorf("scanned %v, want the committed [k=a]", rows)
			}
			return err
		}},
		{"S2PL Put", S2PL, func(tx *Txn) error { return tx.Put("t", []byte("k"), []byte("b")) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := implicitDB(t, Options{})
			writer := db.Begin(SnapshotIsolation)
			if err := writer.Put("t", []byte("k"), []byte("a")); err != nil {
				t.Fatal(err)
			}
			other := db.Begin(c.iso)
			parks := db.StatsSnapshot().LockParks
			done := async(func() error { return c.op(other) })
			awaitParks(t, db, parks)
			if err := writer.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := result(t, done); err != nil {
				t.Fatal(err)
			}
			if err := other.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A GetForUpdate's snapshot follows its wait (thesis §4.5), at SI and
	// SSI, at row granularity and at page granularity, where the writer holds
	// the leaf Exclusive and the wait is for that lock: as the first
	// statement it reads the committed write and commits; after a read of
	// another row, whose snapshot precedes the write's commit, it fails with
	// ErrWriteConflict once the wait is over.
	when := map[bool]string{true: "first statement", false: "after a read"}
	for name, gran := range map[string]Granularity{"row": GranularityRow, "page": GranularityPage} {
		for _, iso := range []Isolation{SnapshotIsolation, SerializableSI} {
			for _, first := range []bool{true, false} {
				t.Run(fmt.Sprintf("GetForUpdate/%s/%v/%s", name, iso, when[first]), func(t *testing.T) {
					db := implicitDB(t, Options{Granularity: gran})
					writer := db.Begin(SnapshotIsolation)
					if err := writer.Put("t", []byte("k"), []byte("a")); err != nil {
						t.Fatal(err)
					}
					other := db.Begin(iso)
					if !first {
						if _, _, err := other.Get("t", []byte("x")); err != nil {
							t.Fatal(err)
						}
					}
					parks := db.StatsSnapshot().LockParks
					done := async(func() error {
						v, _, err := other.GetForUpdate("t", []byte("k"))
						if err == nil && string(v) != "a" {
							return errors.New("read " + string(v) + ", want the committed a")
						}
						return err
					})
					awaitParks(t, db, parks)
					if err := writer.Commit(); err != nil {
						t.Fatal(err)
					}
					err := result(t, done)
					if !first {
						if !errors.Is(err, ErrWriteConflict) {
							t.Fatalf("after the snapshot: %v, want ErrWriteConflict", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if err := other.Commit(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
	t.Run("SI Put behind S2PL Shared", func(t *testing.T) {
		db := implicitDB(t, Options{})
		reader := db.Begin(S2PL)
		if _, _, err := reader.Get("t", []byte("k")); err != nil {
			t.Fatal(err)
		}
		writer := db.Begin(SnapshotIsolation)
		parks := db.StatsSnapshot().LockParks
		done := async(func() error { return writer.Put("t", []byte("k"), []byte("a")) })
		awaitParks(t, db, parks)
		if v, _, err := reader.Get("t", []byte("k")); err != nil || string(v) != "v0" {
			t.Fatalf("the Shared holder reads %q, %v while the writer waits; want v0", v, err)
		}
		if err := reader.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := result(t, done); err != nil {
			t.Fatal(err)
		}
		if err := writer.Commit(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLateConversionHoldsNothing: converting the implicit lock of a writer
// that has committed or aborted is refused and leaves no entry held — also
// for a writer that never touched the lock table, whose release had nothing
// to release — and once every transaction has ended the lock table is empty.
// The converter is a transaction that found the writer on the row before the
// writer ended; it is still registered when it converts, which is what keeps
// the writer's record from being recycled under it.
func TestLateConversionHoldsNothing(t *testing.T) {
	db := implicitDB(t, Options{LockWaitTimeout: time.Second}) // an entry left held fails the next write
	k := lock.Key{Table: "t", Kind: lock.Row, K: "k"}
	for _, c := range []struct {
		name string
		iso  Isolation
		end  func(tx *Txn) error
	}{
		{"SI writer, committed", SnapshotIsolation, (*Txn).Commit},
		{"SI writer, aborted", SnapshotIsolation, (*Txn).Abort},
		{"SSI writer, committed", SerializableSI, (*Txn).Commit},
		{"SSI writer, aborted", SerializableSI, (*Txn).Abort},
	} {
		tx := db.Begin(c.iso)
		if c.iso == SerializableSI {
			if _, _, err := tx.Get("t", []byte("other")); err != nil { // a SIREAD: the lock table knows it
				t.Fatal(err)
			}
		}
		if err := tx.Put("t", []byte("k"), []byte(c.name)); err != nil {
			t.Fatal(err)
		}
		w := tx.t
		if c.iso == SnapshotIsolation && w.LockState() != nil {
			t.Fatalf("%s: a SI Put touched the lock table", c.name)
		}
		converter := db.Begin(SnapshotIsolation)
		if err := c.end(tx); err != nil {
			t.Fatal(err)
		}
		if lock.ImplicitHeld(w) {
			t.Fatalf("%s: the writer still holds its row after it ended", c.name)
		}
		if db.locks.Convert(w, k) {
			t.Errorf("%s: a conversion after the writer ended was accepted", c.name)
		}
		if dump := db.locks.DumpKey(k); dump != k.String()+": no entry" {
			t.Errorf("%s: the refused conversion left %s", c.name, dump)
		}
		converter.Abort()
	}
	if st := db.StatsSnapshot(); st.LockedKeys != 0 || st.LockOwners != 0 {
		t.Fatalf("the lock table holds %d keys of %d owners after every transaction ended", st.LockedKeys, st.LockOwners)
	}
}

// TestImplicitHolderKeepsItsRow: a writer whose implicit lock a waiter has
// converted still holds its row by its version. Its own GetForUpdate reads
// the row and its Insert is refused with ErrKeyExists at once; neither waits
// behind the grant the waiter holds on the entry, which would close a cycle
// through the waiter (ErrDeadlock). The waiter goes on once the writer
// commits.
func TestImplicitHolderKeepsItsRow(t *testing.T) {
	for _, c := range []struct {
		name string
		iso  Isolation
		op   func(tx *Txn) error
	}{
		{"behind GetForUpdate", SnapshotIsolation, func(tx *Txn) error {
			_, _, err := tx.GetForUpdate("t", []byte("k"))
			return err
		}},
		{"behind S2PL Get", S2PL, func(tx *Txn) error {
			_, _, err := tx.Get("t", []byte("k"))
			return err
		}},
		{"behind S2PL Put", S2PL, func(tx *Txn) error { return tx.Put("t", []byte("k"), []byte("b")) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := implicitDB(t, Options{LockWaitTimeout: time.Minute})
			writer := db.Begin(SnapshotIsolation)
			if err := writer.Put("t", []byte("k"), []byte("a")); err != nil {
				t.Fatal(err)
			}
			other := db.Begin(c.iso)
			parks := db.StatsSnapshot().LockParks
			done := async(func() error { return c.op(other) })
			awaitParks(t, db, parks)
			if err := result(t, async(func() error {
				v, _, err := writer.GetForUpdate("t", []byte("k"))
				if err == nil && string(v) != "a" {
					return errors.New("read " + string(v) + ", want its own a")
				}
				return err
			})); err != nil {
				t.Fatalf("the holder's GetForUpdate of its own row: %v", err)
			}
			if err := result(t, async(func() error {
				return writer.Insert("t", []byte("k"), []byte("again"))
			})); !errors.Is(err, ErrKeyExists) {
				t.Fatalf("the holder's Insert over its own row: %v, want ErrKeyExists", err)
			}
			if err := writer.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := result(t, done); err != nil {
				t.Fatal(err)
			}
			if err := other.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
