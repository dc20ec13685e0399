package ssidb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestErrReadOnlyStatementLevel pins the write-rejection contract: every
// write form on a declared read-only transaction fails with ErrReadOnly at
// statement level — the transaction keeps reading and commits — at every
// isolation level.
func TestErrReadOnlyStatementLevel(t *testing.T) {
	for _, iso := range []Isolation{SnapshotIsolation, SerializableSI, S2PL} {
		db := Open(Options{Detector: DetectorPrecise})
		seed(t, db, "kv", "a", 7)
		tx := db.BeginReadOnly(iso)
		if !tx.ReadOnly() {
			t.Fatalf("%v: ReadOnly() = false on BeginReadOnly txn", iso)
		}
		if err := tx.Put("kv", []byte("a"), i64(1)); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("%v: Put = %v, want ErrReadOnly", iso, err)
		}
		if err := tx.Insert("kv", []byte("b"), i64(1)); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("%v: Insert = %v, want ErrReadOnly", iso, err)
		}
		if err := tx.Delete("kv", []byte("a")); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("%v: Delete = %v, want ErrReadOnly", iso, err)
		}
		if _, _, err := tx.GetForUpdate("kv", []byte("a")); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("%v: GetForUpdate = %v, want ErrReadOnly", iso, err)
		}
		// The rejections must not have aborted the transaction.
		v, ok, err := tx.Get("kv", []byte("a"))
		if err != nil || !ok || geti64(v) != 7 {
			t.Fatalf("%v: Get after rejected writes = (%v, %v, %v)", iso, v, ok, err)
		}
		n := 0
		if err := tx.Scan("kv", nil, nil, func(k, v []byte) bool { n++; return true }); err != nil {
			t.Fatalf("%v: Scan after rejected writes: %v", iso, err)
		}
		if n != 1 {
			t.Fatalf("%v: Scan visited %d keys, want 1 (rejected writes leaked)", iso, n)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("%v: Commit after rejected writes: %v", iso, err)
		}
		// And nothing may have reached the store.
		if v, _ := readI64(t, db, "kv", "a"); v != 7 {
			t.Fatalf("%v: value changed to %d through a read-only txn", iso, v)
		}
	}
}

// TestReadOnlySafePromotion pins the safe-snapshot fast path on a quiet
// database: with no concurrent read-write transaction the declared reader
// promotes on its first operation and skips SIREAD acquisition for point
// reads and scans — observable in both the lock census and the counters.
func TestReadOnlySafePromotion(t *testing.T) {
	db := Open(Options{Detector: DetectorPrecise})
	for i := 0; i < 8; i++ {
		seed(t, db, "kv", fmt.Sprintf("k%d", i), int64(i))
	}
	tx := db.BeginReadOnly(SerializableSI)
	if _, _, err := tx.Get("kv", []byte("k0")); err != nil {
		t.Fatal(err)
	}
	if !tx.SafeSnapshot() {
		t.Fatal("reader on a quiet database did not promote")
	}
	n := 0
	if err := tx.Scan("kv", nil, nil, func(k, v []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("scan visited %d keys, want 8", n)
	}
	if st := db.StatsSnapshot(); st.LockedKeys != 0 {
		t.Fatalf("promoted reader holds %d locks, want 0", st.LockedKeys)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st := db.StatsSnapshot()
	if st.ROBegins != 1 || st.ROSafePromotions != 1 {
		t.Fatalf("ROBegins=%d ROSafePromotions=%d, want 1/1", st.ROBegins, st.ROSafePromotions)
	}
	// 1 point read + (8 scanned keys + 1 gap boundary).
	if st.ROSIReadSkips != 10 {
		t.Fatalf("ROSIReadSkips = %d, want 10", st.ROSIReadSkips)
	}
	if st.SuspendedTxns != 0 {
		t.Fatalf("promoted reader was suspended (%d), holds nothing to keep", st.SuspendedTxns)
	}
}

// TestReadOnlyUnsafeKeepsSIReads is the promotion test's complement: while a
// concurrent read-write transaction holds an older snapshot AND another
// read-write transaction has committed inside its window (a possible Tout),
// the declared reader must keep taking SIREAD locks.
func TestReadOnlyUnsafeKeepsSIReads(t *testing.T) {
	db := Open(Options{Detector: DetectorPrecise})
	seed(t, db, "kv", "a", 1)
	rw := db.Begin(SerializableSI)
	if _, _, err := rw.Get("kv", []byte("a")); err != nil { // pins rw's snapshot
		t.Fatal(err)
	}
	seed(t, db, "kv", "b", 2) // a committed Tout inside rw's window arms the threat
	tx := db.BeginReadOnly(SerializableSI)
	if _, _, err := tx.Get("kv", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if tx.SafeSnapshot() {
		t.Fatal("reader promoted while an older RW snapshot is active")
	}
	if st := db.StatsSnapshot(); st.LockedKeys == 0 {
		t.Fatal("unpromoted reader took no SIREAD locks")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := rw.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestROStatsShardTransparency asserts the read-only counters are invariant
// under both shard axes: the same deterministic workload on 1 versus 64
// lock shards and 1 versus 64 table partitions must census identically.
func TestROStatsShardTransparency(t *testing.T) {
	run := func(opts Options) Stats {
		db := Open(opts)
		for i := 0; i < 16; i++ {
			seed(t, db, "kv", fmt.Sprintf("k%02d", i), int64(i))
		}
		// One unpromoted reader (concurrent RW snapshot active, with a
		// committed Tout inside its window) ...
		rw := db.Begin(SerializableSI)
		if _, _, err := rw.Get("kv", []byte("k00")); err != nil {
			t.Fatal(err)
		}
		seed(t, db, "kv", "tout", 99)
		r1 := db.BeginReadOnly(SerializableSI)
		if _, _, err := r1.Get("kv", []byte("k01")); err != nil {
			t.Fatal(err)
		}
		if err := r1.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := rw.Commit(); err != nil {
			t.Fatal(err)
		}
		// ... then promoted readers, point and scan, and point only.
		r2 := db.BeginReadOnly(SerializableSI)
		for i := 0; i < 4; i++ {
			if _, _, err := r2.Get("kv", []byte(fmt.Sprintf("k%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := r2.Scan("kv", nil, nil, func(k, v []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if err := r2.Commit(); err != nil {
			t.Fatal(err)
		}
		r3 := db.BeginReadOnly(SerializableSI)
		if _, _, err := r3.Get("kv", []byte("k02")); err != nil {
			t.Fatal(err)
		}
		if err := r3.Commit(); err != nil {
			t.Fatal(err)
		}
		return db.StatsSnapshot()
	}

	var ref *Stats
	for _, opts := range []Options{
		{Detector: DetectorPrecise, LockShards: 1, TableShards: 1},
		{Detector: DetectorPrecise, LockShards: 64, TableShards: 1},
		{Detector: DetectorPrecise, LockShards: 1, TableShards: 64},
		{Detector: DetectorPrecise, LockShards: 64, TableShards: 64},
	} {
		st := run(opts)
		got := [3]uint64{st.ROBegins, st.ROSafePromotions, st.ROSIReadSkips}
		if ref == nil {
			ref = &st
			if st.ROBegins != 3 || st.ROSafePromotions != 2 {
				t.Fatalf("reference census unexpected: begins=%d promotions=%d", st.ROBegins, st.ROSafePromotions)
			}
			continue
		}
		want := [3]uint64{ref.ROBegins, ref.ROSafePromotions, ref.ROSIReadSkips}
		if got != want {
			t.Fatalf("shards=%d/%d: RO census %v, want %v (shard-dependent counters)",
				opts.LockShards, opts.TableShards, got, want)
		}
	}
}

// TestReadOnlySafePromotionRace is the -race stress for the safe-snapshot
// detector: read-write committers (some carrying out-edges, raising the
// threat horizon) race declared read-only readers that promote mid-flight. The assertions are the data-race detector itself plus
// bookkeeping drain.
func TestReadOnlySafePromotionRace(t *testing.T) {
	db := Open(Options{Detector: DetectorPrecise, TableShards: 4})
	for i := 0; i < 64; i++ {
		seed(t, db, "kv", fmt.Sprintf("k%02d", i), int64(i))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	// RW churn: overlapping read-then-write pairs on a small key set, so
	// rw-edges (and threat raises) actually happen.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := []byte(fmt.Sprintf("k%02d", (g*7+i)%16))
				_ = db.Run(SerializableSI, func(tx *Txn) error {
					if _, _, err := tx.Get("kv", k); err != nil {
						return err
					}
					return tx.Put("kv", []byte(fmt.Sprintf("k%02d", (g*11+i)%16)), i64(int64(i)))
				})
			}
		}(g)
	}
	// Declared readers promoting mid-flight.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				_ = db.RunReadOnly(SerializableSI, func(tx *Txn) error {
					for j := 0; j < 4; j++ {
						if _, _, err := tx.Get("kv", []byte(fmt.Sprintf("k%02d", (i+j)%64))); err != nil {
							return err
						}
					}
					return tx.Scan("kv", []byte("k00"), []byte("k08"), func(k, v []byte) bool { return true })
				})
			}
		}(g)
	}
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	st := db.StatsSnapshot()
	if st.ActiveTxns != 0 {
		t.Fatalf("%d transactions leaked in the registry", st.ActiveTxns)
	}
	if st.ROBegins == 0 || st.ROSafePromotions == 0 {
		t.Fatalf("stress exercised nothing: begins=%d promotions=%d", st.ROBegins, st.ROSafePromotions)
	}
	db.Vacuum()
}
