package ssidb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"ssi/internal/mvcc"
)

func i64(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

func geti64(b []byte) int64 { return int64(binary.BigEndian.Uint64(b)) }

// seed writes key=val in its own committed transaction.
func seed(t *testing.T, db *DB, table, key string, val int64) {
	t.Helper()
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
		return tx.Put(table, []byte(key), i64(val))
	}); err != nil {
		t.Fatalf("seed %s/%s: %v", table, key, err)
	}
}

func readI64(t *testing.T, db *DB, table, key string) (int64, bool) {
	t.Helper()
	var v int64
	var ok bool
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
		b, found, err := tx.Get(table, []byte(key))
		if err != nil {
			return err
		}
		if found {
			v, ok = geti64(b), true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return v, ok
}

func TestBasicReadWriteCommit(t *testing.T) {
	db := Open(Options{})
	seed(t, db, "kv", "a", 1)
	v, ok := readI64(t, db, "kv", "a")
	if !ok || v != 1 {
		t.Fatalf("read %d %v", v, ok)
	}
	if _, ok := readI64(t, db, "kv", "missing"); ok {
		t.Fatal("missing key found")
	}
}

func TestAbortRollsBack(t *testing.T) {
	db := Open(Options{})
	seed(t, db, "kv", "a", 1)
	tx := db.Begin(SerializableSI)
	if err := tx.Put("kv", []byte("a"), i64(99)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("kv", []byte("a")); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if v, ok := readI64(t, db, "kv", "a"); !ok || v != 1 {
		t.Fatalf("after abort: %d %v", v, ok)
	}
	if err := tx.Put("kv", []byte("a"), i64(5)); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("op after abort = %v, want ErrTxnDone", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("commit after abort = %v, want ErrTxnDone", err)
	}
}

func TestSnapshotReadsAreStable(t *testing.T) {
	db := Open(Options{})
	seed(t, db, "kv", "a", 1)
	tx := db.Begin(SnapshotIsolation)
	if _, _, err := tx.Get("kv", []byte("a")); err != nil {
		t.Fatal(err)
	}
	seed(t, db, "kv", "a", 2) // committed after tx's snapshot
	b, _, err := tx.Get("kv", []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if geti64(b) != 1 {
		t.Fatalf("snapshot read moved: %d", geti64(b))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestFirstCommitterWins(t *testing.T) {
	db := Open(Options{})
	seed(t, db, "kv", "a", 1)
	t1 := db.Begin(SnapshotIsolation)
	t2 := db.Begin(SnapshotIsolation)
	// Pin both snapshots with a read so the deferred-snapshot optimisation
	// does not apply.
	t1.Get("kv", []byte("a"))
	t2.Get("kv", []byte("b"))
	if err := t1.Put("kv", []byte("a"), i64(10)); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// t2's snapshot predates t1's commit: updating `a` must hit FCW.
	err := t2.Put("kv", []byte("a"), i64(20))
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("second writer = %v, want ErrWriteConflict", err)
	}
	if v, _ := readI64(t, db, "kv", "a"); v != 10 {
		t.Fatalf("a = %d, want 10", v)
	}
}

func TestDeferredSnapshotAvoidsFCW(t *testing.T) {
	// Thesis §4.5: a transaction whose first statement is the update never
	// aborts under first-committer-wins.
	db := Open(Options{})
	seed(t, db, "kv", "ctr", 0)
	t2 := db.Begin(SnapshotIsolation) // began "before" t1 commits below
	seed(t, db, "kv", "ctr", 1)       // concurrent committed update
	v, _, err := t2.GetForUpdate("kv", []byte("ctr"))
	if err != nil {
		t.Fatalf("first-statement locked read aborted: %v", err)
	}
	if geti64(v) != 1 {
		t.Fatalf("locked read saw %d, want latest 1", geti64(v))
	}
	if err := t2.Put("kv", []byte("ctr"), i64(geti64(v)+1)); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := readI64(t, db, "kv", "ctr"); v != 2 {
		t.Fatalf("ctr = %d, want 2", v)
	}

	// The same at SerializableSI and at page granularity, where the unit is
	// the leaf; and the counterpart, a transaction that read another row
	// before the concurrent update committed, whose snapshot that read fixed:
	// its locked read is a write conflict.
	when := map[bool]string{true: "first statement", false: "after a read"}
	for name, gran := range map[string]Granularity{"row": GranularityRow, "page": GranularityPage} {
		for _, iso := range []Isolation{SnapshotIsolation, SerializableSI} {
			for _, first := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%v/%s", name, iso, when[first]), func(t *testing.T) {
					db := Open(Options{Granularity: gran})
					seed(t, db, "kv", "ctr", 0)
					t2 := db.Begin(iso)
					if !first {
						if _, _, err := t2.Get("kv", []byte("other")); err != nil {
							t.Fatal(err)
						}
					}
					seed(t, db, "kv", "ctr", 1)
					v, _, err := t2.GetForUpdate("kv", []byte("ctr"))
					if !first {
						if !errors.Is(err, ErrWriteConflict) {
							t.Fatalf("locked read after the snapshot = %v, want ErrWriteConflict", err)
						}
						return
					}
					if err != nil || geti64(v) != 1 {
						t.Fatalf("first-statement locked read = %d, %v; want the latest 1", geti64(v), err)
					}
					if err := t2.Put("kv", []byte("ctr"), i64(2)); err != nil {
						t.Fatal(err)
					}
					if err := t2.Commit(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// writeSkew runs the Example 2 interleaving (x+y>0 constraint, both
// withdraw) at the given isolation level and reports the commit errors.
func writeSkew(t *testing.T, opts Options, iso Isolation) (errs []error, x, y int64) {
	t.Helper()
	db := Open(opts)
	seed(t, db, "acct", "x", 50)
	seed(t, db, "acct", "y", 50)
	t1 := db.Begin(iso)
	t2 := db.Begin(iso)
	sum := func(tx *Txn) (int64, error) {
		bx, _, err := tx.Get("acct", []byte("x"))
		if err != nil {
			return 0, err
		}
		by, _, err := tx.Get("acct", []byte("y"))
		if err != nil {
			return 0, err
		}
		return geti64(bx) + geti64(by), nil
	}
	step := func(tx *Txn, key string, withdraw int64) error {
		s, err := sum(tx)
		if err != nil {
			return err
		}
		if s-withdraw <= 0 {
			return fmt.Errorf("constraint would break")
		}
		return tx.Put("acct", []byte(key), i64(50-withdraw))
	}
	e1 := step(t1, "x", 70)
	e2 := step(t2, "y", 80)
	if e1 == nil {
		e1 = t1.Commit()
	} else {
		t1.Abort()
	}
	if e2 == nil {
		e2 = t2.Commit()
	} else {
		t2.Abort()
	}
	x, _ = readI64(t, db, "acct", "x")
	y, _ = readI64(t, db, "acct", "y")
	return []error{e1, e2}, x, y
}

func TestWriteSkewAllowedAtSI(t *testing.T) {
	errs, x, y := writeSkew(t, Options{}, SnapshotIsolation)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("SI aborted write skew: %v", errs)
	}
	if x+y > 0 {
		t.Fatalf("expected the anomaly: x+y = %d", x+y)
	}
}

func TestWriteSkewPreventedAtSSI(t *testing.T) {
	for _, det := range []Detector{DetectorBasic, DetectorPrecise} {
		errs, x, y := writeSkew(t, Options{Detector: det}, SerializableSI)
		unsafe := 0
		for _, e := range errs {
			if errors.Is(e, ErrUnsafe) {
				unsafe++
			} else if e != nil {
				t.Fatalf("detector %v: unexpected error %v", det, e)
			}
		}
		if unsafe == 0 {
			t.Fatalf("detector %v: write skew not detected", det)
		}
		if x+y <= 0 {
			t.Fatalf("detector %v: constraint violated, x+y=%d", det, x+y)
		}
		if det == DetectorPrecise && unsafe != 1 {
			t.Fatalf("precise detector aborted %d transactions, want exactly 1", unsafe)
		}
	}
}

func TestWriteSkewPreventedAtSSIPageMode(t *testing.T) {
	// Write skew across two different pages in the Berkeley DB-style
	// configuration: reads SIREAD-lock pages, writes X-lock pages, and the
	// page-level conflict detection must still catch the dangerous
	// structure. (Same-page writers simply serialize on the page lock and
	// then hit page-level First-Committer-Wins, so the interesting case is
	// the cross-page one.)
	db := Open(Options{Granularity: GranularityPage, PageMaxKeys: 2})
	for _, k := range []string{"a", "b", "y", "z"} {
		seed(t, db, "acct", k, 50)
	}
	if db.TableStats("acct").Pages < 2 {
		t.Fatal("test setup: keys did not spread over multiple pages")
	}
	readBoth := func(tx *Txn) error {
		for _, k := range []string{"a", "z"} {
			if _, _, err := tx.Get("acct", []byte(k)); err != nil {
				return err
			}
		}
		return nil
	}
	t1, t2 := db.Begin(SerializableSI), db.Begin(SerializableSI)
	e1, e2 := readBoth(t1), readBoth(t2)
	if e1 == nil {
		e1 = t1.Put("acct", []byte("a"), i64(-20))
	}
	if e2 == nil {
		e2 = t2.Put("acct", []byte("z"), i64(-30))
	}
	if e1 == nil {
		e1 = t1.Commit()
	}
	if e2 == nil {
		e2 = t2.Commit()
	}
	aborted := 0
	for _, e := range []error{e1, e2} {
		if errors.Is(e, ErrUnsafe) || errors.Is(e, ErrWriteConflict) {
			aborted++
		} else if e != nil {
			t.Fatalf("unexpected error %v", e)
		}
	}
	if aborted == 0 {
		t.Fatal("page-mode SSI missed write skew")
	}
	a, _ := readI64(t, db, "acct", "a")
	z, _ := readI64(t, db, "acct", "z")
	if a+z <= 0 {
		t.Fatalf("constraint violated: a+z=%d", a+z)
	}
}

func TestDoctorsExample(t *testing.T) {
	// Example 1: both doctors go off duty under SI; SSI aborts one.
	run := func(iso Isolation) (onDuty int, errs []error) {
		db := Open(Options{})
		seed(t, db, "duty", "alice", 1)
		seed(t, db, "duty", "bob", 1)
		takeOff := func(tx *Txn, who string) error {
			if err := tx.Put("duty", []byte(who), i64(0)); err != nil {
				return err
			}
			cnt := int64(0)
			for _, d := range []string{"alice", "bob"} {
				b, _, err := tx.Get("duty", []byte(d))
				if err != nil {
					return err
				}
				cnt += geti64(b)
			}
			if cnt == 0 {
				return fmt.Errorf("no doctor left")
			}
			return nil
		}
		t1, t2 := db.Begin(iso), db.Begin(iso)
		e1 := takeOff(t1, "alice")
		e2 := takeOff(t2, "bob")
		if e1 == nil {
			e1 = t1.Commit()
		} else {
			t1.Abort()
		}
		if e2 == nil {
			e2 = t2.Commit()
		} else {
			t2.Abort()
		}
		for _, d := range []string{"alice", "bob"} {
			if v, _ := readI64(t, db, "duty", d); v == 1 {
				onDuty++
			}
		}
		return onDuty, []error{e1, e2}
	}
	if onDuty, errs := run(SnapshotIsolation); onDuty != 0 || errs[0] != nil || errs[1] != nil {
		t.Fatalf("SI: onDuty=%d errs=%v, want the anomaly", onDuty, errs)
	}
	onDuty, errs := run(SerializableSI)
	if onDuty < 1 {
		t.Fatalf("SSI: no doctor on duty, errs=%v", errs)
	}
}

func TestReadOnlyAnomaly(t *testing.T) {
	// Example 3 (Fekete et al. 2004), interleaving of Figure 2.3(a): the
	// read-only transaction Tin observes a state inconsistent with any
	// serial order. SI commits all three; SSI aborts one — also when Tin is
	// declared read-only, because the declaration only drops Tin's outgoing
	// tracking, never the incoming edge it hangs on the pivot.
	run := func(iso Isolation, declaredRO bool) (errs []error) {
		db := Open(Options{Detector: DetectorPrecise})
		seed(t, db, "kv", "x", 0)
		seed(t, db, "kv", "y", 0)
		seed(t, db, "kv", "z", 0)
		pivot := db.Begin(iso)
		out := db.Begin(iso)
		e := func(err error) {
			errs = append(errs, err)
		}
		// pivot: r(y) ... w(x); out: w(y) w(z); in: r(x) r(z).
		_, _, err := pivot.Get("kv", []byte("y"))
		e(err)
		e(out.Put("kv", []byte("y"), i64(10)))
		e(out.Put("kv", []byte("z"), i64(10)))
		e(out.Commit())
		in := db.Begin(iso) // begins after out commits
		if declaredRO {
			in = db.BeginReadOnly(iso)
		}
		_, _, err = in.Get("kv", []byte("x"))
		e(err)
		_, _, err = in.Get("kv", []byte("z"))
		e(err)
		e(in.Commit())
		e(pivot.Put("kv", []byte("x"), i64(5)))
		e(pivot.Commit())
		return errs
	}
	for _, err := range run(SnapshotIsolation, false) {
		if err != nil {
			t.Fatalf("SI should allow the read-only anomaly: %v", err)
		}
	}
	for _, declaredRO := range []bool{false, true} {
		sawUnsafe := false
		for _, err := range run(SerializableSI, declaredRO) {
			if errors.Is(err, ErrUnsafe) {
				sawUnsafe = true
			} else if err != nil {
				t.Fatalf("declaredRO=%v: unexpected error: %v", declaredRO, err)
			}
		}
		if !sawUnsafe {
			t.Fatalf("SSI (declaredRO=%v) did not break the read-only anomaly", declaredRO)
		}
	}
}

func TestFalsePositiveFigure38(t *testing.T) {
	// Figure 3.8: serializable as {Tin, Tpivot, Tout}; the basic detector
	// aborts the pivot (false positive), the precise detector commits all.
	run := func(det Detector) []error {
		db := Open(Options{Detector: det})
		seed(t, db, "kv", "x", 0)
		seed(t, db, "kv", "y", 0)
		seed(t, db, "kv", "z", 0)
		var errs []error
		e := func(err error) { errs = append(errs, err) }
		pivot := db.Begin(SerializableSI)
		_, _, err := pivot.Get("kv", []byte("y")) // pins pivot's snapshot
		e(err)
		in := db.Begin(SerializableSI)
		_, _, err = in.Get("kv", []byte("x"))
		e(err)
		_, _, err = in.Get("kv", []byte("z"))
		e(err)
		e(in.Commit())
		e(pivot.Put("kv", []byte("x"), i64(1))) // finds in's SIREAD: in -> pivot
		out := db.Begin(SerializableSI)
		e(out.Put("kv", []byte("y"), i64(1))) // finds pivot's SIREAD: pivot -> out
		e(out.Put("kv", []byte("z"), i64(1)))
		e(out.Commit())
		e(pivot.Commit())
		return errs
	}
	unsafeCount := func(errs []error) int {
		n := 0
		for _, err := range errs {
			if errors.Is(err, ErrUnsafe) {
				n++
			} else if err != nil {
				t.Fatalf("unexpected error %v", err)
			}
		}
		return n
	}
	if n := unsafeCount(run(DetectorBasic)); n == 0 {
		t.Fatal("basic detector should flag Figure 3.8 (conservatively)")
	}
	if n := unsafeCount(run(DetectorPrecise)); n != 0 {
		t.Fatalf("precise detector aborted %d transactions on a serializable interleaving", n)
	}
}

func TestPhantomDetectedAtSSI(t *testing.T) {
	// A predicate read overlapping an insert into its range: dangerous when
	// it forms consecutive rw edges. Construct the classic two-transaction
	// phantom write skew: each scans the range and inserts a key the other
	// scan should have seen.
	run := func(iso Isolation) []error {
		db := Open(Options{Detector: DetectorPrecise})
		seed(t, db, "s", "a", 1)
		seed(t, db, "s", "z", 1)
		count := func(tx *Txn) (int, error) {
			n := 0
			err := tx.Scan("s", []byte("a"), []byte("zz"), func(k, v []byte) bool {
				n++
				return true
			})
			return n, err
		}
		t1, t2 := db.Begin(iso), db.Begin(iso)
		var errs []error
		if _, err := count(t1); err != nil {
			errs = append(errs, err)
		}
		if _, err := count(t2); err != nil {
			errs = append(errs, err)
		}
		errs = append(errs, t1.Insert("s", []byte("m1"), i64(1)))
		errs = append(errs, t2.Insert("s", []byte("m2"), i64(1)))
		errs = append(errs, t1.Commit())
		errs = append(errs, t2.Commit())
		return errs
	}
	for _, err := range run(SnapshotIsolation) {
		if err != nil {
			t.Fatalf("SI should allow the phantom: %v", err)
		}
	}
	saw := false
	for _, err := range run(SerializableSI) {
		if errors.Is(err, ErrUnsafe) {
			saw = true
		} else if err != nil {
			t.Fatalf("unexpected error %v", err)
		}
	}
	if !saw {
		t.Fatal("SSI missed the phantom write skew")
	}
}

func TestPhantomBlockedAtS2PL(t *testing.T) {
	db := Open(Options{})
	seed(t, db, "s", "a", 1)
	seed(t, db, "s", "z", 1)
	t1 := db.Begin(S2PL)
	if err := t1.Scan("s", []byte("a"), []byte("zz"), func(k, v []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	inserted := make(chan error, 1)
	go func() {
		inserted <- db.Run(S2PL, func(tx *Txn) error {
			return tx.Insert("s", []byte("m"), i64(1))
		})
	}()
	select {
	case err := <-inserted:
		t.Fatalf("insert into scanned range not blocked (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-inserted; err != nil {
		t.Fatalf("insert after scanner commit: %v", err)
	}
}

func TestScanSemantics(t *testing.T) {
	db := Open(Options{})
	for i := 0; i < 10; i++ {
		seed(t, db, "s", fmt.Sprintf("k%02d", i), int64(i))
	}
	db.Run(SnapshotIsolation, func(tx *Txn) error {
		return tx.Delete("s", []byte("k05"))
	})
	var got []int64
	err := db.Run(SerializableSI, func(tx *Txn) error {
		return tx.Scan("s", []byte("k02"), []byte("k08"), func(k, v []byte) bool {
			got = append(got, geti64(v))
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{2, 3, 4, 6, 7} // k05 deleted, k08 excluded
	if len(got) != len(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	db.Run(SnapshotIsolation, func(tx *Txn) error {
		return tx.Scan("s", nil, nil, func(k, v []byte) bool {
			n++
			return n < 3
		})
	})
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestInsertDuplicate: at every level and granularity, an Insert on a key
// with a live visible version is refused with ErrKeyExists and leaves the
// transaction running — an Insert on the transaction's own live insert too —
// and an Insert over a deleted key succeeds. A refused Insert read the row, at
// the level's read mode. Under S2PL's Shared lock, or at page granularity
// under the leaf's Exclusive lock, a second writer waits until the refuser
// ends; at row granularity under SI and SSI it does not wait, and at SSI it
// finds the refuser's read.
func TestInsertDuplicate(t *testing.T) {
	for name, gran := range map[string]Granularity{"row": GranularityRow, "page": GranularityPage} {
		for _, iso := range []Isolation{SnapshotIsolation, SerializableSI, S2PL} {
			t.Run(fmt.Sprintf("%s/%v", name, iso), func(t *testing.T) {
				db := Open(Options{Granularity: gran})
				seed(t, db, "kv", "a", 1)
				err := db.Run(iso, func(tx *Txn) error {
					if err := tx.Insert("kv", []byte("a"), i64(2)); !errors.Is(err, ErrKeyExists) {
						return fmt.Errorf("insert dup = %v, want ErrKeyExists", err)
					}
					// The transaction survives the statement error.
					if err := tx.Insert("kv", []byte("b"), i64(3)); err != nil {
						return err
					}
					if err := tx.Insert("kv", []byte("b"), i64(4)); !errors.Is(err, ErrKeyExists) {
						return fmt.Errorf("insert on its own insert = %v, want ErrKeyExists", err)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if v, ok := readI64(t, db, "kv", "b"); !ok || v != 3 {
					t.Fatalf("b = %d %v", v, ok)
				}
				// Inserting over a deleted key succeeds.
				db.Run(iso, func(tx *Txn) error { return tx.Delete("kv", []byte("a")) })
				if err := db.Run(iso, func(tx *Txn) error {
					return tx.Insert("kv", []byte("a"), i64(7))
				}); err != nil {
					t.Fatal(err)
				}
				if v, _ := readI64(t, db, "kv", "a"); v != 7 {
					t.Fatalf("a = %d", v)
				}

				refuser := db.Begin(iso)
				if err := refuser.Insert("kv", []byte("b"), i64(5)); !errors.Is(err, ErrKeyExists) {
					t.Fatalf("insert dup = %v, want ErrKeyExists", err)
				}
				put := func() error {
					return db.Run(iso, func(tx *Txn) error { return tx.Put("kv", []byte("b"), i64(6)) })
				}
				if gran == GranularityRow && iso != S2PL {
					if err := put(); err != nil {
						t.Fatalf("a write of the refused row returned %v", err)
					}
					if marked := db.mgr.HasOutConflict(refuser.t); marked != (iso == SerializableSI) {
						t.Fatalf("the refuser's read marked %v by a %v writer", marked, iso)
					}
					if err := refuser.Commit(); err != nil {
						t.Fatal(err)
					}
				} else {
					parks := db.StatsSnapshot().LockParks
					put := async(put)
					awaitParks(t, db, parks)
					select {
					case err := <-put:
						t.Fatalf("a write of the refused row returned %v while the refuser ran", err)
					default:
					}
					if err := refuser.Commit(); err != nil {
						t.Fatal(err)
					}
					if err := result(t, put); err != nil {
						t.Fatalf("the write behind the refuser returned %v", err)
					}
				}
				if v, _ := readI64(t, db, "kv", "b"); v != 6 {
					t.Fatalf("b = %d", v)
				}
			})
		}
	}
}

// refusalHook wraps a database's lock targets to run after, once, when a
// write is refused with ErrKeyExists: between the claim that refused and the
// read that Txn.write then records.
type refusalHook struct {
	lockTargets
	after func()
}

func (h *refusalHook) write(tx *Txn, tb *table, key []byte, row mvcc.Row, val []byte, tombstone, mustNotExist bool) error {
	err := h.lockTargets.write(tx, tb, key, row, val, tombstone, mustNotExist)
	if after := h.after; err == ErrKeyExists && after != nil {
		h.after = nil
		after()
	}
	return err
}

// TestRefusedInsertReadDecides: an Insert refused on a live head, whose key a
// delete then removes before the refusal's read, is decided by that read. A
// claim with no snapshot (S2PL, or an SI/SSI first statement) holds nothing on
// the row it refuses, so the read finds the key absent: the Insert must then
// install, not answer ErrKeyExists to a transaction that reads the key as
// absent. Once the snapshot is fixed first (SI/SSI), the read finds the key
// live and the refusal stands.
func TestRefusedInsertReadDecides(t *testing.T) {
	for _, iso := range []Isolation{SnapshotIsolation, SerializableSI, S2PL} {
		t.Run(iso.String(), func(t *testing.T) {
			db := Open(Options{})
			seed(t, db, "kv", "k", 1)
			hook := &refusalHook{lockTargets: db.targets}
			hook.after = func() {
				if err := db.Run(iso, func(tx *Txn) error { return tx.Delete("kv", []byte("k")) }); err != nil {
					t.Errorf("the delete after the refusal returned %v", err)
				}
			}
			db.targets = hook
			tx := db.Begin(iso)
			inserted := tx.Insert("kv", []byte("k"), i64(2))
			v, found, err := tx.Get("kv", []byte("k"))
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case hook.after != nil:
				t.Fatal("the Insert was not refused")
			case inserted == nil && (!found || geti64(v) != 2):
				t.Fatalf("after its Insert the transaction reads k = %v %v", v, found)
			case inserted != nil && (!errors.Is(inserted, ErrKeyExists) || !found):
				t.Fatalf("Insert returned %v, and the transaction then reads k found=%v", inserted, found)
			case inserted != nil && iso == S2PL:
				t.Fatalf("the S2PL Insert returned %v, though its read holds k absent", inserted)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPageReadStamp: at page granularity a locked read or a refused Insert
// stamps the leaf it locks Exclusive at SerializableSI only, where the stamp
// retires the SIREAD that grant dropped, so a concurrent writer of the leaf
// with an older snapshot then fails First-Committer-Wins. SI and S2PL hold no
// SIREAD to retire, and that writer commits.
func TestPageReadStamp(t *testing.T) {
	ops := map[string]func(tx *Txn) error{
		"GetForUpdate": func(tx *Txn) error {
			_, _, err := tx.GetForUpdate("kv", []byte("a"))
			return err
		},
		"refused Insert": func(tx *Txn) error {
			if err := tx.Insert("kv", []byte("a"), i64(2)); !errors.Is(err, ErrKeyExists) {
				return fmt.Errorf("insert = %v, want ErrKeyExists", err)
			}
			return nil
		},
	}
	for name, op := range ops {
		for _, iso := range []Isolation{SnapshotIsolation, SerializableSI, S2PL} {
			t.Run(fmt.Sprintf("%s/%v", name, iso), func(t *testing.T) {
				db := Open(Options{Granularity: GranularityPage})
				seed(t, db, "kv", "a", 1)
				seed(t, db, "kv", "b", 1)
				seed(t, db, "other", "x", 1)
				w := db.Begin(iso)
				if _, _, err := w.Get("other", []byte("x")); err != nil { // fixes w's snapshot
					t.Fatal(err)
				}
				if err := db.Run(iso, op); err != nil {
					t.Fatal(err)
				}
				err := w.Put("kv", []byte("b"), i64(3))
				if err == nil {
					err = w.Commit()
				}
				if want := iso == SerializableSI; errors.Is(err, ErrWriteConflict) != want || (!want && err != nil) {
					t.Fatalf("the leaf's older writer returned %v", err)
				}
			})
		}
	}
}

func TestS2PLReadersBlockWriters(t *testing.T) {
	db := Open(Options{})
	seed(t, db, "kv", "a", 1)
	reader := db.Begin(S2PL)
	if _, _, err := reader.Get("kv", []byte("a")); err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() {
		wrote <- db.Run(S2PL, func(tx *Txn) error { return tx.Put("kv", []byte("a"), i64(2)) })
	}()
	select {
	case err := <-wrote:
		t.Fatalf("S2PL writer not blocked by reader (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	reader.Commit()
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
}

func TestSSIReadersDoNotBlockWriters(t *testing.T) {
	db := Open(Options{})
	seed(t, db, "kv", "a", 1)
	reader := db.Begin(SerializableSI)
	if _, _, err := reader.Get("kv", []byte("a")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- db.Run(SerializableSI, func(tx *Txn) error { return tx.Put("kv", []byte("a"), i64(2)) })
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("writer failed: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("SSI writer blocked by reader — violates the paper's core property")
	}
	// The reader still sees its snapshot and can commit (it is Tin, not a
	// pivot: single rw edge is safe).
	b, _, err := reader.Get("kv", []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if geti64(b) != 1 {
		t.Fatalf("reader saw %d", geti64(b))
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestS2PLDeadlockDetected(t *testing.T) {
	db := Open(Options{})
	seed(t, db, "kv", "a", 1)
	seed(t, db, "kv", "b", 1)
	t1 := db.Begin(S2PL)
	t2 := db.Begin(S2PL)
	if _, _, err := t1.Get("kv", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := t2.Get("kv", []byte("b")); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- t1.Put("kv", []byte("b"), i64(2)) }()
	go func() { errs <- t2.Put("kv", []byte("a"), i64(2)) }()
	e1, e2 := <-errs, <-errs
	deadlocks := 0
	for _, e := range []error{e1, e2} {
		if errors.Is(e, ErrDeadlock) {
			deadlocks++
		}
	}
	if deadlocks == 0 {
		t.Fatalf("no deadlock detected: %v, %v", e1, e2)
	}
	t1.Abort()
	t2.Abort()
}

func TestMixedSIQueriesWithSSIUpdates(t *testing.T) {
	// Thesis §3.8: read-only transactions at plain SI mixed with updates at
	// Serializable SI — queries acquire no SIREAD locks and never abort
	// with the unsafe error, while write skew among updates stays prevented.
	db := Open(Options{Detector: DetectorPrecise})
	seed(t, db, "acct", "x", 50)
	seed(t, db, "acct", "y", 50)

	q := db.Begin(SnapshotIsolation)
	if _, _, err := q.Get("acct", []byte("x")); err != nil {
		t.Fatal(err)
	}

	u1, u2 := db.Begin(SerializableSI), db.Begin(SerializableSI)
	for _, u := range []*Txn{u1, u2} {
		for _, k := range []string{"x", "y"} {
			if _, _, err := u.Get("acct", []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	e1 := u1.Put("acct", []byte("x"), i64(-20))
	e2 := u2.Put("acct", []byte("y"), i64(-30))
	if e1 == nil {
		e1 = u1.Commit()
	}
	if e2 == nil {
		e2 = u2.Commit()
	}
	if !errors.Is(e1, ErrUnsafe) && !errors.Is(e2, ErrUnsafe) {
		t.Fatalf("write skew among SSI updates not prevented: %v %v", e1, e2)
	}
	if _, _, err := q.Get("acct", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := q.Commit(); err != nil {
		t.Fatalf("SI query aborted: %v", err)
	}
	if st := db.StatsSnapshot(); st.ActiveTxns != 0 {
		t.Fatalf("active leak: %+v", st)
	}
}

func TestSuspendedBookkeepingDrains(t *testing.T) {
	db := Open(Options{Detector: DetectorPrecise})
	for i := 0; i < 20; i++ {
		seed(t, db, "kv", fmt.Sprintf("k%d", i), int64(i))
	}
	// A long-running reader keeps SSI readers suspended...
	long := db.Begin(SerializableSI)
	long.Get("kv", []byte("k0"))
	for i := 0; i < 50; i++ {
		db.Run(SerializableSI, func(tx *Txn) error {
			_, _, err := tx.Get("kv", []byte(fmt.Sprintf("k%d", i%20)))
			return err
		})
	}
	st := db.StatsSnapshot()
	if st.SuspendedTxns == 0 {
		t.Fatal("expected suspended transactions while overlapper active")
	}
	long.Commit()
	// The long reader's own end retired them; one more transaction changes
	// nothing.
	db.Run(SerializableSI, func(tx *Txn) error {
		_, _, err := tx.Get("kv", []byte("k0"))
		return err
	})
	st = db.StatsSnapshot()
	if st.SuspendedTxns > 2 {
		t.Fatalf("suspended set not drained: %+v", st)
	}
	if st.LockedKeys > 4 {
		t.Fatalf("lock table not drained: %+v", st)
	}
}

func TestPageModeFalseSharing(t *testing.T) {
	// Two transactions updating different rows on the same page: row mode
	// commits both; page mode aborts one under First-Committer-Wins —
	// exactly the Berkeley DB coarseness the paper measures. "a" and "b"
	// share a page because page mode defaults to a single partition.
	run := func(g Granularity) (conflicts int) {
		db := Open(Options{Granularity: g, PageMaxKeys: 16})
		seed(t, db, "kv", "a", 1)
		seed(t, db, "kv", "b", 1)
		t1 := db.Begin(SnapshotIsolation)
		t2 := db.Begin(SnapshotIsolation)
		// Pin snapshots first.
		t1.Get("kv", []byte("a"))
		t2.Get("kv", []byte("b"))
		e1 := t1.Put("kv", []byte("a"), i64(2))
		if e1 == nil {
			e1 = t1.Commit()
		}
		e2 := t2.Put("kv", []byte("b"), i64(2))
		if e2 == nil {
			e2 = t2.Commit()
		}
		for _, e := range []error{e1, e2} {
			if errors.Is(e, ErrWriteConflict) {
				conflicts++
			} else if e != nil {
				t.Fatalf("unexpected: %v", e)
			}
		}
		return conflicts
	}
	if c := run(GranularityRow); c != 0 {
		t.Fatalf("row mode: %d false conflicts", c)
	}
	if c := run(GranularityPage); c != 1 {
		t.Fatalf("page mode: %d conflicts, want 1 (page-level FCW)", c)
	}
}

func TestRunRetry(t *testing.T) {
	db := Open(Options{})
	seed(t, db, "kv", "ctr", 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			db.RunRetry(SerializableSI, func(tx *Txn) error {
				v, _, err := tx.GetForUpdate("kv", []byte("ctr"))
				if err != nil {
					return err
				}
				return tx.Put("kv", []byte("ctr"), i64(geti64(v)+1))
			})
		}
	}()
	for i := 0; i < 50; i++ {
		db.RunRetry(SerializableSI, func(tx *Txn) error {
			v, _, err := tx.GetForUpdate("kv", []byte("ctr"))
			if err != nil {
				return err
			}
			return tx.Put("kv", []byte("ctr"), i64(geti64(v)+1))
		})
	}
	<-done
	if v, _ := readI64(t, db, "kv", "ctr"); v != 100 {
		t.Fatalf("ctr = %d, want 100 (lost updates)", v)
	}
}

func TestGroupCommitUnderLoad(t *testing.T) {
	db := Open(Options{FlushLatency: 2 * time.Millisecond})
	seed(t, db, "kv", "a", 0)
	done := make(chan struct{})
	const workers, each = 8, 10
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < each; i++ {
				db.RunRetry(SnapshotIsolation, func(tx *Txn) error {
					return tx.Put("kv", []byte(fmt.Sprintf("w%d-%d", w, i)), i64(1))
				})
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	st := db.StatsSnapshot()
	if st.Fsyncs == 0 || st.Fsyncs >= workers*each {
		t.Fatalf("flushes = %d for %d commits; group commit broken", st.Fsyncs, workers*each)
	}
}

// TestHotKeyProgress pins the precise detector's progress guarantee:
// transactions that all read and then write one hot key form dangerous
// structures with each other and abort freely, but under Figure 3.10 every
// abort implicates a committed transaction, so the group as a whole always
// makes progress. A detector that aborts a pivot whose identified partners
// are all still active lets four such workers abort each other in lockstep
// forever — a hot-key livelock that wedges this test against its watchdog
// instead of failing an assertion. The workers retry WITHOUT backoff
// (unlike RunRetry) so the guarantee is pinned on the detector alone, not
// on jitter breaking the lockstep.
func TestHotKeyProgress(t *testing.T) {
	db := Open(Options{Detector: DetectorPrecise})
	defer db.Close()
	seed(t, db, "kv", "hot", 0)
	for w := 0; w < 4; w++ {
		seed(t, db, "kv", fmt.Sprintf("own%d", w), 0)
	}
	const each = 25
	finished := make(chan int, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			own := []byte(fmt.Sprintf("own%d", w))
			for i := 0; i < each; i++ {
				retry := func(fn func(tx *Txn) error) error {
					for {
						err := db.Run(SerializableSI, fn)
						if err == nil || !Retryable(err) {
							return err
						}
					}
				}
				if err := retry(func(tx *Txn) error {
					hv, _, err := tx.Get("kv", []byte("hot"))
					if err != nil {
						return err
					}
					ov, _, err := tx.Get("kv", own)
					if err != nil {
						return err
					}
					if err := tx.Put("kv", own, i64(geti64(ov)+1)); err != nil {
						return err
					}
					return tx.Put("kv", []byte("hot"), i64(geti64(hv)+1))
				}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					break
				}
			}
			finished <- w
		}(w)
	}
	for n := 0; n < 4; n++ {
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			t.Fatal("hot-key workers stopped committing: progress guarantee broken (livelock)")
		}
	}
	if v, _ := readI64(t, db, "kv", "hot"); v != 4*each {
		t.Fatalf("hot = %d, want %d (lost updates)", v, 4*each)
	}
}
