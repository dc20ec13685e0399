// Allocation microbenchmarks and budgets for the engine's hot paths: what a
// point read, a scan and a short transaction may allocate, and what a loaded
// row keeps alive. Throughput is not measured here — `ssibench -run kvmix`
// (and the other rows of internal/scenario) is the one entrance to those
// cells, and benchmark/ the gated one.
package ssi_test

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"ssi/internal/raceflag"
	"ssi/internal/workload/kvmix"
	"ssi/internal/workload/smallbank"
	"ssi/ssidb"
)

// Allocation microbenchmarks for the storage read path. ReportAllocs makes
// allocs/op part of every run (CI included, no -benchmem needed), so a
// regression that starts allocating per Get or per scanned key is visible.
// A one-Get transaction costs 1 alloc / 24 B — the handle — at plain SI, on a
// safe read-only snapshot and read-write at SerializableSI alike: a
// transaction that writes nothing has no creator cell, and its 96 B record,
// which carries the lock owner state, goes back to core's pool — at its end if
// it locked nothing and conflicted with nothing, and otherwise once its
// SIREAD lock's retirement and every transaction that ran beside it are over
// (the read-write SerializableSI Get took 2 allocs / 120 B while only unseen
// records were recycled); the lock itself is named by the row's own key
// string.
func BenchmarkGetAlloc(b *testing.B) {
	for _, c := range []struct {
		name string
		iso  ssidb.Isolation
		ro   bool
	}{
		{"SI", ssidb.SnapshotIsolation, false},
		{"SSI", ssidb.SerializableSI, false},
		// Declared read-only at SSI: on this quiet database the snapshot is
		// safe immediately, so the reads run SIREAD-free — the allocs/op
		// must match plain SI.
		{"SSI-RO", ssidb.SerializableSI, true},
	} {
		for _, tshards := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/tshards=%d", c.name, tshards), func(b *testing.B) {
				db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards})
				cfg := kvmix.DefaultConfig()
				if err := kvmix.Load(db, cfg); err != nil {
					b.Fatal(err)
				}
				key := []byte{0, 0, 0x12, 0x34}
				body := func(tx *ssidb.Txn) error {
					_, _, err := tx.Get(kvmix.Table, key)
					return err
				}
				run := func() error { return db.Run(c.iso, body) }
				if c.ro {
					run = func() error { return db.RunReadOnly(c.iso, body) }
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkScanAlloc measures ordered scans per op — the k-way merged path
// when tshards > 1. The 64-key span is the single-round fast path; the
// 1024-key span crosses multiple lock-coupled rounds (latch drops, iterator
// revalidation, per-round SIREAD flushes under SSI elsewhere), so it tracks
// the cost of the handoff protocol itself. Merge state is pooled per table
// and the collected range lives in the engine's recycled scan context, so
// neither span should allocate per partition, per round or per item: both
// report the transaction's own fixed records and nothing else.
func BenchmarkScanAlloc(b *testing.B) {
	for _, tshards := range []int{1, 8} {
		for _, span := range []int{64, 1024} {
			b.Run(fmt.Sprintf("tshards=%d/span=%d", tshards, span), func(b *testing.B) {
				db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards})
				cfg := kvmix.DefaultConfig()
				if err := kvmix.Load(db, cfg); err != nil {
					b.Fatal(err)
				}
				from := kvmix.Key(0x1000)
				to := kvmix.Key(0x1000 + span)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
						return tx.Scan(kvmix.Table, from, to, func(k, v []byte) bool { return true })
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// allocsPerCall returns the mallocs and bytes one call of f costs, as the
// minimum over five batches of 100 calls. Unlike testing.AllocsPerRun it
// leaves GOMAXPROCS alone — sync.Pool caches per P, and CI runs the budgets
// at several core counts for exactly that reason — so a batch can pick up a
// pool miss after a migration (a pool's per-P chain regrows: ≈65 KB for the
// 2 049 lock entries of a 1024-row scan), a lock-table map shedding its
// deleted slots (≈115 KB a time) or a background allocation; a path that
// really allocates per call (or per item) shows in every batch.
func allocsPerCall(f func()) (allocs, bytes float64) {
	const batches, calls = 5, 100
	allocs, bytes = math.Inf(1), math.Inf(1)
	for b := 0; b < batches; b++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/calls)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/calls)
	}
	return allocs, bytes
}

// TestScanAllocBudget asserts what a steady-state scan may allocate: the
// transaction's own fixed records and nothing that grows with the range, the
// partition count or the number of lock-coupled rounds — the collected range,
// the merge state and the lock-path buffers are all recycled. The budget is
// therefore the same for 64 and 1024 keys, for 1 and 8 partitions, and for a
// plain-SI scan and a declared read-only SerializableSI scan on a safe
// snapshot. A read-write SerializableSI scan additionally leaves SIREAD
// records in the lock table, and nothing about them is built per row either:
// the lock-table entries are recycled, and each row and gap lock is named by
// the store's own key string, so the same fixed budget holds at 64 and at
// 1024 keys (what it adds to the plain-SI scan is the record, which its
// SIREAD locks keep out of core's pool).
func TestScanAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under -race; the budgets assume it does not")
	}
	for _, c := range []struct {
		name   string
		iso    ssidb.Isolation
		ro     bool
		allocs float64 // per scan transaction, whatever the span
		bytes  float64
	}{
		{name: "SI", iso: ssidb.SnapshotIsolation, allocs: 3, bytes: 512},
		{name: "SSI-safe-RO", iso: ssidb.SerializableSI, ro: true, allocs: 3, bytes: 512},
		// Measured 2.0 and 120. The 2 049 lock-table entries a 1024-row scan
		// takes and gives back keep sync.Pool and the lock shards' maps
		// churning (see allocsPerCall), which one run in 25 shows as ≈840 B
		// in all five batches; the byte budget leaves room for that and is
		// still a twentieth of what regrowing one of the scan's buffers
		// would cost. A per-row allocation fails the count, at either span.
		{name: "SSI", iso: ssidb.SerializableSI, allocs: 6, bytes: 4096},
	} {
		for _, tshards := range []int{1, 8} {
			for _, span := range []int{64, 1024} {
				t.Run(fmt.Sprintf("%s/tshards=%d/span=%d", c.name, tshards, span), func(t *testing.T) {
					// Several lock shards, so the SIREAD batch takes its
					// group-by-shard path.
					db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards, LockShards: 8})
					cfg := kvmix.DefaultConfig()
					if err := kvmix.Load(db, cfg); err != nil {
						t.Fatal(err)
					}
					from := kvmix.Key(0x1000)
					to := kvmix.Key(0x1000 + span)
					body := func(tx *ssidb.Txn) error {
						return tx.Scan(kvmix.Table, from, to, func(k, v []byte) bool { return true })
					}
					run := func() error { return db.Run(c.iso, body) }
					if c.ro {
						run = func() error { return db.RunReadOnly(c.iso, body) }
					}
					scan := func() {
						if err := run(); err != nil {
							t.Fatal(err)
						}
					}
					scan() // warm the pools
					allocs, bytes := allocsPerCall(scan)
					t.Logf("%.1f allocs/op, %.0f B/op", allocs, bytes)
					if allocs > c.allocs || bytes > c.bytes {
						t.Errorf("scan of %d keys over %d shards: %.1f allocs/op, %.0f B/op, budget %.0f and %.0f", span, tshards, allocs, bytes, c.allocs, c.bytes)
					}
					if st := db.StatsSnapshot(); c.ro && st.ROSIReadSkips == 0 {
						t.Errorf("safe-snapshot path not exercised: %d promotions, %d SIREAD skips", st.ROSafePromotions, st.ROSIReadSkips)
					}
				})
			}
		}
	}
}

// txnShape is what one transaction of TestTxnAllocBudget does, in this order.
type txnShape struct{ gets, puts, locked, refused int }

// shapedTxn returns a transaction of the given shape, run through RunRetry on
// existing rows of a kvmix load; every call works on the next keys of a
// prebuilt 4 096-key set, so its locks meet no entry of its own.
func shapedTxn(t *testing.T, db *ssidb.DB, iso ssidb.Isolation, sh txnShape) func() {
	const nkeys = 4096
	keys := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = kvmix.Key(i * 2) // existing rows: the load holds 10 000
	}
	val := []byte("w")
	next := 0
	key := func() []byte { next++; return keys[next%nkeys] }
	body := func(tx *ssidb.Txn) error {
		for i := 0; i < sh.gets; i++ {
			if _, _, err := tx.Get(kvmix.Table, key()); err != nil {
				return err
			}
		}
		for i := 0; i < sh.puts; i++ {
			if err := tx.Put(kvmix.Table, key(), val); err != nil {
				return err
			}
		}
		for i := 0; i < sh.locked; i++ {
			if _, found, err := tx.GetForUpdate(kvmix.Table, key()); err != nil || !found {
				return fmt.Errorf("GetForUpdate of an existing row: found %v, %v", found, err)
			}
		}
		// An Insert on an existing key is refused and leaves the
		// transaction usable: the operations after it, and the commit, run.
		for i := 0; i < sh.refused; i++ {
			if err := tx.Insert(kvmix.Table, key(), val); !errors.Is(err, ssidb.ErrKeyExists) {
				return fmt.Errorf("Insert on an existing key = %v, want ErrKeyExists", err)
			}
		}
		return nil
	}
	return func() {
		if err := db.RunRetry(iso, body); err != nil {
			t.Fatal(err)
		}
	}
}

// warmTxnPath runs the mixed and ten-Put transactions a thousand times each:
// it warms the pools, and the store with them — the retirement queues grow to
// what a transaction end leaves in them, and the first retirements fill the
// free lists that every later write draws its version from and its own
// retirement refills.
func warmTxnPath(t *testing.T, db *ssidb.DB, iso ssidb.Isolation) (mixed func()) {
	mixed, ten := shapedTxn(t, db, iso, txnShape{gets: 4, puts: 2}), shapedTxn(t, db, iso, txnShape{puts: 10})
	for i := 0; i < 1000; i++ {
		mixed()
		ten()
	}
	return mixed
}

// TestTxnAllocBudget asserts what a steady-state point transaction may
// allocate: the records that have to outlive it and nothing it needs only
// while it runs, nor anything the store already owns. The body is the
// repository benchmark's kv-uniform transaction — 4 Gets and 2 Puts on
// existing rows through RunRetry — over prebuilt keys. That is the creator
// cell its versions point at (24 B, allocated at the first write) and the
// 24 B handle: 2 allocations, 48 B, at SerializableSI and at plain SI alike.
// The transaction record (96 B, the lock owner state included) is recycled:
// once the transaction is retired and released and every transaction that ran
// beside it has ended, it goes back to core's pool for a later begin. It was
// 3 allocations and 144 B while only the records of transactions that ended
// unseen were recycled, 200 B while the handle carried the database and
// program pointers that now live in the recycled scratch, and 184 B in 4
// allocations while the lock owner state was a 32 B object of its own and the
// handle held the record pointer that the scratch now holds. No operation on
// an existing row adds to that: every lock
// is named by the store's own key string, through the row handle the
// operation's one descent returned; the version a write supersedes is copied
// out into one an earlier writer's retirement recycled; the write set, the
// rival buffer, the retirement batch and the lock-table entries are recycled
// too. The second half of the test holds each further Put, Get, GetForUpdate
// and refused Insert to that. Nothing here yields between transactions: a
// transaction's retirement, which refills the free list its writes drew on,
// runs in its own Commit, so the budget holds on one processor as on eight.
func TestTxnAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under -race; the budgets assume it does not")
	}
	for _, iso := range []ssidb.Isolation{ssidb.SerializableSI, ssidb.SnapshotIsolation} {
		for _, tshards := range []int{1, 8} {
			t.Run(fmt.Sprintf("%v/tshards=%d", iso, tshards), func(t *testing.T) {
				db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards, LockShards: 8})
				if err := kvmix.Load(db, kvmix.DefaultConfig()); err != nil {
					t.Fatal(err)
				}
				mixed := warmTxnPath(t, db, iso)
				allocs, bytes := allocsPerCall(mixed)
				t.Logf("4 Gets + 2 Puts: %.1f allocs/op, %.0f B/op", allocs, bytes)
				if allocs > 2 || bytes > 48 { // measured 2.0 and 48
					t.Errorf("4 Gets + 2 Puts: %.1f allocs/op, %.0f B/op, budget 2 and 48", allocs, bytes)
				}

				a1, b1 := allocsPerCall(shapedTxn(t, db, iso, txnShape{puts: 1}))
				for _, c := range []struct {
					what  string
					extra txnShape // ten of the operation beside the one Put
				}{
					{"write", txnShape{puts: 11}},
					{"Get of an existing row", txnShape{gets: 10, puts: 1}},
					{"GetForUpdate of an existing row", txnShape{puts: 1, locked: 10}},
					{"Insert refused with ErrKeyExists", txnShape{puts: 1, refused: 10}},
				} {
					run := shapedTxn(t, db, iso, c.extra)
					for i := 0; i < 100; i++ {
						run()
					}
					a, b := allocsPerCall(run)
					perOp, perOpBytes := (a-a1)/10, (b-b1)/10
					t.Logf("each further %s: %.2f allocs, %.1f B", c.what, perOp, perOpBytes)
					if perOp > 0.1 || perOpBytes > 0 {
						t.Errorf("each further %s costs %.2f allocs and %.1f B, want ≤ 0.1 and 0 B", c.what, perOp, perOpBytes)
					}
				}
			})
		}
	}
}

// TestReadOnlyTxnAllocBudget asserts what the repository benchmark's
// scan-readmostly reader may allocate: 4 Gets and one 64-row Scan, declared
// read-only at SerializableSI through RunReadOnly, on prebuilt keys and scan
// bounds. On this quiet database its snapshot is safe at its first read, so it
// takes no lock, marks no conflict, writes nothing and is queued for no
// retirement: its record ends unseen and goes back to core's pool, and what is
// left is the 24-byte handle — 1 allocation, 24 B, where it read 2 and 144 B
// while every such reader dropped a fresh record and a 48-byte handle, and
// 32 B while the handle held the record pointer.
func TestReadOnlyTxnAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under -race; the budgets assume it does not")
	}
	for _, tshards := range []int{1, 8} {
		t.Run(fmt.Sprintf("tshards=%d", tshards), func(t *testing.T) {
			db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards})
			cfg := kvmix.DefaultConfig()
			if err := kvmix.Load(db, cfg); err != nil {
				t.Fatal(err)
			}
			const nkeys, span = 4096, 64
			keys := make([][]byte, nkeys)
			for i := range keys {
				keys[i] = kvmix.Key(i * 2)
			}
			next := 0
			key := func() []byte { next++; return keys[next%nkeys] }
			from, to := kvmix.Key(0x1000), kvmix.Key(0x1000+span)
			readers, rows := 0, 0
			body := func(tx *ssidb.Txn) error {
				for i := 0; i < 4; i++ {
					if _, _, err := tx.Get(kvmix.Table, key()); err != nil {
						return err
					}
				}
				return tx.Scan(kvmix.Table, from, to, func(k, v []byte) bool { rows++; return true })
			}
			reader := func() {
				readers++
				if err := db.RunReadOnly(ssidb.SerializableSI, body); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ { // warm the pools
				reader()
			}
			before := db.StatsSnapshot()
			readers, rows = 0, 0
			allocs, bytes := allocsPerCall(reader)
			t.Logf("4 Gets + one %d-row Scan, read-only: %.1f allocs/op, %.0f B/op", span, allocs, bytes)
			if allocs > 1 || bytes > 24 {
				t.Errorf("read-only 4 Gets + Scan: %.1f allocs/op, %.0f B/op, budget 1 and 24", allocs, bytes)
			}
			st := db.StatsSnapshot()
			if n := st.ROSafePromotions - before.ROSafePromotions; n != uint64(readers) || rows != readers*span {
				t.Errorf("%d of %d readers promoted, %d rows scanned, want every reader promoted and %d rows", n, readers, rows, readers*span)
			}
			if st.ActiveTxns != 0 || st.SuspendedTxns != 0 || st.LockedKeys != 0 {
				t.Errorf("read-only readers left state behind: %+v", st)
			}
		})
	}
}

// TestDurableTxnAllocBudget asserts what durability adds to TestTxnAllocBudget's
// 4 Gets + 2 Puts: at most one allocation and 16 B per transaction, so 3 and
// 64 B in all (160 B while the in-memory transaction cost 144 with its record,
// 200 B while it cost 184). The redo
// record is built in the recycled transaction scratch, the WAL frames it into
// a group-commit buffer the flusher hands back once written, and the durable
// wait parks on a condition variable. The segments are 4 KiB, so every
// measured batch of 100 transactions crosses a segment roll, whose file
// creation, zero fill and directory sync are spread over the transactions
// between two rolls.
func TestDurableTxnAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under -race; the budgets assume it does not")
	}
	opts := ssidb.Options{Detector: ssidb.DetectorPrecise, LockShards: 8}
	warm := func(db *ssidb.DB) (mixed func()) {
		if err := kvmix.Load(db, kvmix.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		return warmTxnPath(t, db, ssidb.SerializableSI)
	}
	memAllocs, memBytes := allocsPerCall(warm(ssidb.Open(opts)))

	dir := t.TempDir()
	opts.SegmentBytes, opts.CheckpointBytes = 4<<10, -1
	db, err := ssidb.OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	segments := func() int {
		m, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return len(m)
	}
	mixed := warm(db)
	before := segments()
	allocs, bytes := allocsPerCall(mixed)
	t.Logf("4 Gets + 2 Puts: in memory %.1f allocs/op, %.0f B/op; durable %.1f allocs/op, %.0f B/op", memAllocs, memBytes, allocs, bytes)
	if rolls := segments() - before; rolls < 5 {
		t.Fatalf("%d segment rolls during the five measured batches, want one in each", rolls)
	}
	if allocs > memAllocs+1 || bytes > memBytes+16 || allocs > 3 || bytes > 64 { // measured 2.1 and 53
		t.Errorf("durable 4 Gets + 2 Puts: %.1f allocs/op, %.0f B/op, budget the in-memory %.1f and %.0f plus 1 and 16 B, at most 3 and 64 B", allocs, bytes, memAllocs, memBytes)
	}
}

// TestROGetAllocBudget asserts the headline cost claim for the read-only fast
// path: on a quiet database — no read-write transactions, no threat on the
// horizon — a declared read-only Get at Serializable SI allocates exactly what
// a plain-SI Get does: the 24-byte handle, one allocation, both records going
// back to core's pool. The safe-snapshot check is pure atomic loads and the
// SIREAD acquisition is skipped entirely, so nothing extra may show up here.
func TestROGetAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under -race; the budgets assume it does not")
	}
	for _, tshards := range []int{1, 8} {
		t.Run(fmt.Sprintf("tshards=%d", tshards), func(t *testing.T) {
			db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards})
			cfg := kvmix.DefaultConfig()
			if err := kvmix.Load(db, cfg); err != nil {
				t.Fatal(err)
			}
			key := []byte{0, 0, 0x12, 0x34}
			body := func(tx *ssidb.Txn) error {
				_, _, err := tx.Get(kvmix.Table, key)
				return err
			}
			measure := func(name string, run func() error) (allocs, bytes float64) {
				if err := run(); err != nil { // warm the txn pools
					t.Fatal(err)
				}
				once := func() {
					if err := run(); err != nil {
						t.Fatal(err)
					}
				}
				allocs = testing.AllocsPerRun(200, once)
				_, bytes = allocsPerCall(once)
				t.Logf("%s: %.1f allocs/op, %.0f B/op", name, allocs, bytes)
				return allocs, bytes
			}
			si, siBytes := measure("SI Get", func() error { return db.Run(ssidb.SnapshotIsolation, body) })
			ro, roBytes := measure("safe-RO SSI Get", func() error { return db.RunReadOnly(ssidb.SerializableSI, body) })
			if si > 1 || siBytes > 24 {
				t.Fatalf("plain-SI Get: %.1f allocs/op, %.0f B/op, budget 1 and 24", si, siBytes)
			}
			if ro > si || roBytes > siBytes {
				t.Fatalf("safe-RO SSI Get: %.1f allocs/op, %.0f B/op, want ≤ plain-SI %.1f and %.0f", ro, roBytes, si, siBytes)
			}
			if st := db.StatsSnapshot(); st.ROSafePromotions == 0 || st.ROSIReadSkips == 0 {
				t.Fatalf("RO path not exercised: promotions=%d skips=%d", st.ROSafePromotions, st.ROSIReadSkips)
			}
		})
	}
}

// TestRowFootprintAllocBudget asserts what a loaded row keeps alive: its
// B+tree entry — a 4-byte key head, a key pointer and a value pointer, in a
// leaf's 256-byte head array and two 512-byte pointer arrays, ≈22 B with the
// 112-byte node and the interior pages, pages being full after an ascending
// load — its key in the tree's arena (a length byte and the 4 key bytes), the
// 32-byte chain that is also its newest version — pointing, once its loader
// has retired, at the shared frozen cell rather than its loader's creator cell
// — and its 1-byte value, in 16-byte tiny-allocator blocks it shares with the
// loader's dead 4-byte copy of its key: ≈67 B in all
// (TestOverwrittenRowFootprintAllocBudget, whose values replace the load's,
// reads the rest alone). The budget is the highest measurement at GOMAXPROCS
// 1, 2 and 8 (67.6 B) plus ≈ 3 %, so a word a row gains has to show. That read
// 178 B while leaves were half-empty pairs of grown slices and the chain
// header and the version were two objects, 106 B while a slot held an
// interface, a version a slice header, and the new gap's lock a second key
// copy, ≈78 B while the absent row's lock was named by a copy of its own,
// ≈74 B while a 24-byte slot in a 65-slot page held the key string the lock
// was named by, and ≈72 B while the write copied the key once more, to name
// the exclusive lock on the then-absent row. The partition count (which the
// core count selects by default) must not change it: every partition's tree
// sees an ascending load of its own.
func TestRowFootprintAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("a footprint is not a race; the 200 000-row loads are slow under the detector")
	}
	const rows, budget = 200_000, 70
	for _, tshards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("tshards=%d", tshards), func(t *testing.T) {
			perRow := loadedBytes(t, ssidb.Options{TableShards: tshards}, func(db *ssidb.DB) error {
				cfg := kvmix.DefaultConfig()
				cfg.Keys = rows
				return kvmix.Load(db, cfg)
			}) / rows
			t.Logf("%.1f B/row", perRow)
			if perRow > budget {
				t.Errorf("a loaded row keeps %.1f B alive over %d partitions, budget %d", perRow, tshards, budget)
			}
		})
	}
}

// TestOverwrittenRowFootprintAllocBudget is TestRowFootprintAllocBudget after
// every row was overwritten once, each in an SSI transaction of its own, and
// the database quiesced: the overwrite's retirement prunes the superseded
// version and freezes the new one — points it at the shared frozen cell — so
// the writer's 24-byte creator cell dies with its record, and the load's
// values die with the tiny blocks they shared with dead key copies: the
// entry, the arena key and the chain, ≈60 B. It read ≈102 B while every row
// kept its last writer's cell, and ≈74 B with 24-byte slots in 65-slot pages.
func TestOverwrittenRowFootprintAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("a footprint is not a race; the 200 000-row loads are slow under the detector")
	}
	const rows, budget = 200_000, 61
	for _, tshards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("tshards=%d", tshards), func(t *testing.T) {
			perRow := loadedBytes(t, ssidb.Options{TableShards: tshards}, func(db *ssidb.DB) error {
				cfg := kvmix.DefaultConfig()
				cfg.Keys = rows
				if err := kvmix.Load(db, cfg); err != nil {
					return err
				}
				val := []byte("w") // one value for every row: the test counts what a row keeps beside it
				for i := 0; i < rows; i++ {
					if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
						return tx.Put(kvmix.Table, kvmix.Key(i), val)
					}); err != nil {
						return err
					}
				}
				return nil
			}) / rows
			t.Logf("%.1f B/row", perRow)
			if perRow > budget {
				t.Errorf("an overwritten row keeps %.1f B alive over %d partitions, budget %d", perRow, tshards, budget)
			}
		})
	}
}

// TestSmallBankFootprintAllocBudget is TestRowFootprintAllocBudget for the
// SmallBank tables: a customer is three rows — an account row (12-byte name,
// 4-byte id) and a saving and a checking row (4-byte id, 8-byte balance) — so
// it costs three tree entries, three arena keys and three chains, and its
// values: ≈218 B a customer. The budget is the highest measurement at
// GOMAXPROCS 1, 2 and 8 (219.0 B) plus ≈ 3 %. It read ≈334 B with 32-byte
// slots and 48-byte chains, ≈254 B while each row's absent-row lock was named
// by a second copy of its key, ≈246 B with 24-byte slots in 65-slot pages,
// and ≈231 B while a write copied each key once more to name its lock.
func TestSmallBankFootprintAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("a footprint is not a race; the 300 000-row load is slow under the detector")
	}
	const customers, budget = 100_000, 226
	perCustomer := loadedBytes(t, ssidb.Options{}, func(db *ssidb.DB) error {
		cfg := smallbank.DefaultConfig()
		cfg.Accounts = customers
		return smallbank.Load(db, cfg)
	}) / customers
	t.Logf("%.1f B/customer", perCustomer)
	if perCustomer > budget {
		t.Errorf("a loaded SmallBank customer keeps %.1f B alive, budget %d", perCustomer, budget)
	}
}

// loadedBytes returns the heap bytes that load leaves alive in a database
// opened with opts, collected twice before and after.
func loadedBytes(t *testing.T, opts ssidb.Options, load func(*ssidb.DB) error) float64 {
	t.Helper()
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	db := ssidb.Open(opts)
	if err := load(db); err != nil {
		t.Fatal(err)
	}
	after := heap()
	runtime.KeepAlive(db)
	return float64(after - before)
}
