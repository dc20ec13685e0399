package ssidb

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"
	"weak"

	"ssi/internal/core"
	"ssi/internal/sercheck"
)

// The record-lifetime invariant (core's package comment, "Record lifetime"):
// a transaction record dies at cleanup — no version, page stamp, lock-table
// entry or pooled buffer keeps it — while everything a later reader needs
// from a committed writer (its data, its commit timestamp, its id) stays, and
// a record some active snapshot can still conflict with is always still there.

var lifetimeGranularities = map[string]Granularity{"row": GranularityRow, "page": GranularityPage}

// alive counts the objects — records or cells — the collector has not
// reclaimed, after two full collections (the second covers what the first
// one's pool eviction freed).
func alive[T any](ptrs []weak.Pointer[T]) int {
	runtime.GC()
	runtime.GC()
	n := 0
	for _, p := range ptrs {
		if p.Value() != nil {
			n++
		}
	}
	return n
}

// chainedWriters runs n sequential transactions at iso, each reading the rows
// the two before it wrote and overwriting a row of its own, so every row's
// newest version has its own creator and every read lands on a version whose
// creator has already been retired. It returns a weak pointer to each
// transaction's record and to its creator cell, and the transaction ids.
func chainedWriters(t *testing.T, db *DB, iso Isolation, n int) (recs []weak.Pointer[core.Txn], cells []weak.Pointer[core.Cell], ids []uint64) {
	t.Helper()
	row := func(i int) []byte { return []byte(fmt.Sprintf("r%05d", i)) }
	// Rows exist beforehand: the writers supersede a version, they do not insert.
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
		for i := 0; i < n; i++ {
			if err := tx.Put("t", row(i), i64(-1)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	recs = make([]weak.Pointer[core.Txn], n)
	cells = make([]weak.Pointer[core.Cell], n)
	ids = make([]uint64, n)
	for i := 0; i < n; i++ {
		tx := db.Begin(iso)
		for _, j := range []int{i - 1, i - 2} {
			if j < 0 {
				continue
			}
			v, ok, err := tx.Get("t", row(j))
			if err != nil || !ok || geti64(v) != int64(j) {
				t.Fatalf("txn %d reads row %d = %v %v %v, want %d", i, j, v, ok, err, j)
			}
		}
		if err := tx.Put("t", row(i), i64(int64(i))); err != nil {
			t.Fatal(err)
		}
		recs[i], cells[i], ids[i] = weak.Make(tx.t), weak.Make(tx.t.Cell()), tx.ID()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return recs, cells, ids
}

// TestRecordsDieDataStays: after the last commit of a quiescing run nothing
// keeps a transaction record — at the parent of this change every one of them
// stayed alive, pinned by the row it wrote — and every row still reads its
// value. SI and S2PL writers are retired through the retirement queues like
// SSI ones (Manager.Finish's rule), or their records would stay pinned as
// before.
// A recorded run of the same body still attributes every read to the writer
// whose record is gone.
func TestRecordsDieDataStays(t *testing.T) {
	const n = 2000
	for gname, gran := range lifetimeGranularities {
		for _, iso := range []Isolation{SerializableSI, SnapshotIsolation, S2PL} {
			t.Run(fmt.Sprintf("%s/%v", gname, iso), func(t *testing.T) {
				opts := Options{Granularity: gran, PageMaxKeys: 16, Detector: DetectorPrecise}
				db := Open(opts)
				recs, _, _ := chainedWriters(t, db, iso, n)
				if st := db.StatsSnapshot(); st.ActiveTxns != 0 || st.SuspendedTxns != 0 || st.LockedKeys != 0 {
					t.Fatalf("database not quiescent: %+v", st)
				}
				if a := alive(recs); a != 0 {
					t.Errorf("%d of %d transaction records survive their cleanup", a, n)
				}
				for i := 0; i < n; i++ {
					if v, ok := readI64(t, db, "t", fmt.Sprintf("r%05d", i)); !ok || v != int64(i) {
						t.Fatalf("row %d reads %d %v once its writer's record is gone", i, v, ok)
					}
				}
				runtime.KeepAlive(db)

				hist := sercheck.NewHistory()
				opts.Recorder = hist
				_, _, ids := chainedWriters(t, Open(opts), iso, n)
				wr := map[[2]uint64]bool{}
				for _, e := range hist.MVSG().Edges {
					if e.Kind == sercheck.WR {
						wr[[2]uint64{e.From, e.To}] = true
					}
				}
				for i := 2; i < n; i++ {
					if !wr[[2]uint64{ids[i-1], ids[i]}] || !wr[[2]uint64{ids[i-2], ids[i]}] {
						t.Fatalf("txn %d (id %d): reads not attributed to writers %d and %d", i, ids[i], ids[i-1], ids[i-2])
					}
				}
				if ok, cycle := hist.Serializable(); !ok {
					t.Fatalf("sequential run not serializable: cycle %v", cycle)
				}
			})
		}
	}
}

// TestRetiredWriterCellsDie: a retired writer's creator cell dies too, not
// only its record, because pruning points the version it keeps at the shared
// frozen cell. At row granularity the quiescing run's last end
// is enough; at page granularity the last stamp of each page still names its
// writer until the page's next walk, which DB.Vacuum makes for every page.
// Every row still reads its value.
func TestRetiredWriterCellsDie(t *testing.T) {
	const n = 2000
	for gname, gran := range lifetimeGranularities {
		for _, iso := range []Isolation{SerializableSI, SnapshotIsolation, S2PL} {
			t.Run(fmt.Sprintf("%s/%v", gname, iso), func(t *testing.T) {
				db := Open(Options{Granularity: gran, PageMaxKeys: 16, Detector: DetectorPrecise})
				_, cells, _ := chainedWriters(t, db, iso, n)
				if st := db.StatsSnapshot(); st.ActiveTxns != 0 || st.SuspendedTxns != 0 {
					t.Fatalf("database not quiescent: %+v", st)
				}
				if gran == GranularityPage {
					t.Logf("%d of %d cells kept by page stamps before the vacuum", alive(cells), n)
					db.Vacuum()
				}
				if a := alive(cells); a != 0 {
					t.Errorf("%d of %d creator cells survive their writers' retirement", a, n)
				}
				for i := 0; i < n; i++ {
					if v, ok := readI64(t, db, "t", fmt.Sprintf("r%05d", i)); !ok || v != int64(i) {
						t.Fatalf("row %d reads %d %v once its writer's cell is gone", i, v, ok)
					}
				}
				runtime.KeepAlive(db)
			})
		}
	}
}

// TestLiveConflictRecordSurvivesSweeps: a record an active snapshot can still
// conflict with outlives any number of drains. R takes its snapshot, W commits
// a newer version of x, ten thousand unrelated writers come and go, a vacuum
// walks every chain, and R's read of x still finds W's record behind the
// version (or page stamp) — neither the drains nor the vacuum froze it, W's
// commit being newer than R's snapshot: the rw-edge R → W is installed, and if
// W committed as a pivot whose outgoing partner committed first, R is refused.
func TestLiveConflictRecordSurvivesSweeps(t *testing.T) {
	for gname, gran := range lifetimeGranularities {
		for dname, det := range map[string]Detector{"basic": DetectorBasic, "precise": DetectorPrecise} {
			for _, pivot := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/pivot=%v", gname, dname, pivot), func(t *testing.T) {
					db := Open(Options{Granularity: gran, Detector: det})
					// One table per row, so page granularity shares no page.
					for _, tb := range []string{"x", "y", "z"} {
						seed(t, db, tb, "k", 1)
					}
					r := db.Begin(SerializableSI)
					if _, _, err := r.Get("y", []byte("k")); err != nil {
						t.Fatal(err)
					}
					w := db.Begin(SerializableSI)
					if pivot {
						// W →rw Tout, and Tout commits first.
						if _, _, err := w.Get("z", []byte("k")); err != nil {
							t.Fatal(err)
						}
						if err := db.Run(SerializableSI, func(tx *Txn) error { return tx.Put("z", []byte("k"), i64(2)) }); err != nil {
							t.Fatal(err)
						}
					}
					if err := w.Put("x", []byte("k"), i64(2)); err != nil {
						t.Fatal(err)
					}
					wt := w.t // the handle lets go of its record at the end
					if err := w.Commit(); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 10000; i++ {
						if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
							return tx.Put("other", []byte(fmt.Sprintf("o%03d", i%500)), i64(int64(i)))
						}); err != nil {
							t.Fatal(err)
						}
					}
					db.Vacuum()
					v, ok, err := r.Get("x", []byte("k"))
					if pivot {
						if !errors.Is(err, ErrUnsafe) {
							t.Fatalf("read of a committed pivot's version = %v, want ErrUnsafe", err)
						}
						return
					}
					if err != nil || !ok || geti64(v) != 1 {
						t.Fatalf("snapshot read of x = %v %v %v, want 1", v, ok, err)
					}
					if !db.mgr.HasOutConflict(r.t) || !db.mgr.HasInConflict(wt) {
						t.Fatalf("rw-edge R → W not installed: R.out %v, W.in %v", db.mgr.HasOutConflict(r.t), db.mgr.HasInConflict(wt))
					}
					if err := r.Commit(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestPinnedSnapshotKeepsRecordsUntilRelease: while any snapshot is held,
// every transaction that committed after it stays suspended with its record
// (bounding that is the summary tier's job, ROADMAP item 2); the moment the
// snapshot ends they all die.
func TestPinnedSnapshotKeepsRecordsUntilRelease(t *testing.T) {
	const n = 500
	for gname, gran := range lifetimeGranularities {
		t.Run(gname, func(t *testing.T) {
			db := Open(Options{Granularity: gran, PageMaxKeys: 16, Detector: DetectorPrecise})
			seed(t, db, "pin", "k", 1)
			pin := db.Begin(SnapshotIsolation)
			if _, _, err := pin.Get("pin", []byte("k")); err != nil {
				t.Fatal(err)
			}
			recs, _, _ := chainedWriters(t, db, SerializableSI, n)
			if a := alive(recs); a != n {
				t.Errorf("%d of %d records alive under a pinned snapshot, want all", a, n)
			}
			// The loader of chainedWriters' rows is suspended too.
			if st := db.StatsSnapshot(); st.SuspendedTxns != n+1 {
				t.Errorf("SuspendedTxns = %d under a pinned snapshot, want %d", st.SuspendedTxns, n+1)
			}
			if err := pin.Commit(); err != nil {
				t.Fatal(err)
			}
			if st := db.StatsSnapshot(); st.SuspendedTxns != 0 || st.LockedKeys != 0 {
				t.Errorf("after the snapshot ended: %+v", st)
			}
			if a := alive(recs); a != 0 {
				t.Errorf("%d of %d records survive the release of the snapshot", a, n)
			}
			runtime.KeepAlive(db)
		})
	}
}

// TestTxnHandleAllocBudget pins the handle in the 24-byte size class: the
// caller's one allocation per transaction once its record is recycled. What
// only a running transaction needs, its record among it, lives in the
// recycled scratch instead.
func TestTxnHandleAllocBudget(t *testing.T) {
	if n := unsafe.Sizeof(Txn{}); n > 24 {
		t.Errorf("ssidb.Txn is %d bytes, budget 24 (the next size class is 32)", n)
	}
}

// TestFinishedHandleOutlivesItsRecord: a declared read-only transaction on a
// safe snapshot ends unseen, so its record goes back to core's pool and the
// next begin may run on it. The finished handle must then answer ErrTxnDone
// on every operation and nil on Abort, and report its own id, level and
// declaration, never the new transaction's — while the transaction now on
// the record runs undisturbed by it.
func TestFinishedHandleOutlivesItsRecord(t *testing.T) {
	for _, commit := range []bool{true, false} {
		t.Run(fmt.Sprintf("commit=%v", commit), func(t *testing.T) {
			db := Open(Options{Detector: DetectorPrecise})
			seed(t, db, "t", "k", 1)
			var old, next *Txn
			// A pool may miss (and drops puts at random under the race
			// detector), so repeat until a begin reuses the record.
			for attempt := 0; attempt < 100 && next == nil; attempt++ {
				old = db.BeginReadOnly(SerializableSI)
				if _, _, err := old.Get("t", []byte("k")); err != nil || !old.SafeSnapshot() {
					t.Fatalf("read-only Get = %v, promoted %v", err, old.SafeSnapshot())
				}
				rec := old.t
				if commit {
					if err := old.Commit(); err != nil {
						t.Fatal(err)
					}
				} else if err := old.Abort(); err != nil {
					t.Fatal(err)
				}
				if n := db.Begin(S2PL); n.t == rec {
					next = n
				} else {
					n.Abort()
				}
			}
			if next == nil {
				t.Fatal("no begin reused the record of a transaction that ended unseen")
			}

			if old.ID() == next.ID() || old.Isolation() != SerializableSI || !old.ReadOnly() || !old.SafeSnapshot() || old.Snapshot() != 0 {
				t.Errorf("finished handle: id %d (the record's new transaction %d), %v, read-only %v, safe %v, snapshot %d",
					old.ID(), next.ID(), old.Isolation(), old.ReadOnly(), old.SafeSnapshot(), old.Snapshot())
			}
			noop := func(k, v []byte) bool { return true }
			for name, err := range map[string]error{
				"Get":          func() error { _, _, err := old.Get("t", []byte("k")); return err }(),
				"GetForUpdate": func() error { _, _, err := old.GetForUpdate("t", []byte("k")); return err }(),
				"Put":          old.Put("t", []byte("k"), i64(2)),
				"Insert":       old.Insert("t", []byte("new"), i64(2)),
				"Delete":       old.Delete("t", []byte("k")),
				"Scan":         old.Scan("t", nil, nil, noop),
				"ScanLimit":    old.ScanLimit("t", nil, nil, 1, noop),
				"Commit":       old.Commit(),
			} {
				if !errors.Is(err, ErrTxnDone) {
					t.Errorf("%s on the finished handle = %v, want ErrTxnDone", name, err)
				}
			}
			if err := old.Abort(); err != nil {
				t.Errorf("Abort on the finished handle = %v, want nil", err)
			}

			// The transaction on the reused record saw none of it.
			if next.Isolation() != S2PL || next.ReadOnly() || next.t.ID() != next.ID() {
				t.Fatalf("the record's new transaction: %v, read-only %v, record id %d, id %d", next.Isolation(), next.ReadOnly(), next.t.ID(), next.ID())
			}
			if err := next.Put("t", []byte("k"), i64(3)); err != nil {
				t.Fatal(err)
			}
			if err := next.Commit(); err != nil {
				t.Fatal(err)
			}
			if v, ok := readI64(t, db, "t", "k"); !ok || v != 3 {
				t.Fatalf("k = %d %v after the record's new transaction committed 3", v, ok)
			}
		})
	}
}

// TestRecycledRecordsStaySerializable races declared read-only readers, which
// promote at their first read and end unseen, against SerializableSI writers
// whose commits queue for retirement and whose ends drain those queues and
// sweep limbo, under the race detector in CI. The recorded history must be
// serializable; the readers' records and the writers' records must both have
// been recycled; and no record of an endpoint of MarkConflict may ever be
// handed to another transaction: the test keeps every such record reachable,
// so its address cannot be reused by a fresh allocation either, and checks at
// the end that each still holds the transaction it was noted with.
func TestRecycledRecordsStaySerializable(t *testing.T) {
	const keys, writers, readers, rounds = 32, 2, 4, 300
	hist := sercheck.NewHistory()
	db := Open(Options{Detector: DetectorPrecise, Recorder: hist})
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i%keys)) }
	if err := db.Run(SerializableSI, func(tx *Txn) error {
		for i := 0; i < keys; i++ {
			if err := tx.Put("t", key(i), i64(0)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	type use struct {
		id     uint64
		writer bool
	}
	var mu sync.Mutex
	marked := map[*core.Txn]uint64{} // endpoints of MarkConflict: never reused
	owner := map[*core.Txn]use{}     // the transaction last seen on each record
	reused, writersReused := 0, 0
	note := func(tx *Txn, writer bool) error {
		mu.Lock()
		defer mu.Unlock()
		if id, ok := marked[tx.t]; ok {
			return fmt.Errorf("txn %d runs on the record of txn %d, an endpoint of MarkConflict", tx.ID(), id)
		}
		if u, ok := owner[tx.t]; ok && u.id != tx.ID() {
			reused++
			if u.writer {
				writersReused++
			}
		}
		owner[tx.t] = use{tx.ID(), writer}
		if tx.t.Marked() {
			marked[tx.t] = tx.ID()
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := db.RunRetry(SerializableSI, func(tx *Txn) error {
					a, b := w*7+i, w*13+i*3
					va, _, err := tx.Get("t", key(a))
					if err != nil {
						return err
					}
					if _, _, err := tx.Get("t", key(b)); err != nil {
						return err
					}
					if err := tx.Put("t", key(b), i64(geti64(va)+1)); err != nil {
						return err
					}
					return note(tx, true)
				}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				err := db.RunReadOnly(SerializableSI, func(tx *Txn) error {
					for _, k := range []int{r + i, r*5 + i*2} {
						if _, _, err := tx.Get("t", key(k)); err != nil {
							return err
						}
					}
					if err := tx.Scan("t", key(i), key(i+8), func(k, v []byte) bool { return true }); err != nil {
						return err
					}
					return note(tx, false)
				})
				if err != nil && !Retryable(err) {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ok, cycle := hist.Serializable(); !ok {
		t.Fatalf("non-serializable history: cycle %v", cycle)
	}
	for rec, id := range marked {
		if rec.ID() != id || !rec.Marked() {
			t.Errorf("the record of txn %d, an endpoint of MarkConflict, now holds txn %d (marked %v)", id, rec.ID(), rec.Marked())
		}
	}
	st := db.StatsSnapshot()
	t.Logf("%d promotions, %d records reused by a later transaction (%d of them writers'), %d kept as MarkConflict endpoints", st.ROSafePromotions, reused, writersReused, len(marked))
	if st.ROSafePromotions == 0 || reused == 0 || writersReused == 0 {
		t.Errorf("%d promotions, %d reused records, %d of them writers': the recycled paths were not exercised", st.ROSafePromotions, reused, writersReused)
	}
	if st.ActiveTxns != 0 || st.SuspendedTxns != 0 || st.LockedKeys != 0 {
		t.Errorf("database not quiescent: %+v", st)
	}
}
