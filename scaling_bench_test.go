// Allocation microbenchmarks and budgets for the engine's hot paths: what a
// point read, a scan and a short transaction may allocate, and what a loaded
// row keeps alive. Throughput is not measured here — `ssibench -run kvmix`
// (and the other rows of internal/scenario) is the one entrance to those
// cells, and benchmark/ the gated one.
package ssi_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ssi/internal/raceflag"
	"ssi/internal/workload/kvmix"
	"ssi/ssidb"
)

// Allocation microbenchmarks for the storage read path. ReportAllocs makes
// allocs/op part of every run (CI included, no -benchmem needed), so a
// regression that starts allocating per Get or per scanned key is visible.
// A one-Get transaction costs 2 allocs / 144 B at plain SI and on a safe
// read-only snapshot — the 96 B transaction record and the 48 B handle; a
// transaction that writes nothing has no creator cell — and 5 allocs / 188 B
// read-write at SerializableSI, which adds the lock owner state, the lock key
// and the cleanup list that later releases its SIREAD.
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
// 1024 keys (what it adds to the plain-SI scan is the lock owner's state and
// the sweep's cleanup list for the suspended record).
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
		// Measured 4.0 and 184. The 2 049 lock-table entries a 1024-row scan
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

// TestTxnAllocBudget asserts what a steady-state point transaction may
// allocate: the records that have to outlive it and nothing it needs only
// while it runs. The body is the repository benchmark's kv-uniform
// transaction — 4 Gets and 2 Puts on existing rows through RunRetry — over
// prebuilt keys. At SerializableSI that is the transaction record (96 B), the
// creator cell its versions point at (24 B, allocated at the first write),
// the handle, the lock owner state, one version per write and one key string
// per read lock (11 allocations: a point read has found no row whose key it
// could borrow, an update names its lock by the store's own); at plain SI the
// reads lock nothing, and — as for every committed writer — the record is
// retired through the suspended list, whose sweep hands back an 8 B cleanup
// list (7 allocations). The write set, the rival buffer and the lock-table
// entries are recycled, so the second half of the test holds each further
// write to its version: one 48-byte object, the old head copied out from
// under the new one.
func TestTxnAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under -race; the budgets assume it does not")
	}
	const nkeys = 4096
	keys := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = kvmix.Key(i * 2) // existing rows: the load holds 10 000
	}
	val := []byte("w")
	// txn returns a transaction of the given shape; every call works on the
	// next keys of the prebuilt set, so its locks meet no entry of its own.
	txn := func(t *testing.T, db *ssidb.DB, iso ssidb.Isolation, reads, writes int) func() {
		next := 0
		key := func() []byte { next++; return keys[next%nkeys] }
		body := func(tx *ssidb.Txn) error {
			for i := 0; i < reads; i++ {
				if _, _, err := tx.Get(kvmix.Table, key()); err != nil {
					return err
				}
			}
			for i := 0; i < writes; i++ {
				if err := tx.Put(kvmix.Table, key(), val); err != nil {
					return err
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
	for _, c := range []struct {
		name   string
		iso    ssidb.Isolation
		allocs float64
		bytes  float64
	}{
		{name: "SSI", iso: ssidb.SerializableSI, allocs: 12, bytes: 360},  // measured 11.0 and 320
		{name: "SI", iso: ssidb.SnapshotIsolation, allocs: 8, bytes: 340}, // measured 7.0 and 304
	} {
		for _, tshards := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/tshards=%d", c.name, tshards), func(t *testing.T) {
				db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards, LockShards: 8})
				if err := kvmix.Load(db, kvmix.DefaultConfig()); err != nil {
					t.Fatal(err)
				}
				run := txn(t, db, c.iso, 4, 2)
				for i := 0; i < 100; i++ { // warm the pools
					run()
				}
				allocs, bytes := allocsPerCall(run)
				t.Logf("4 Gets + 2 Puts: %.1f allocs/op, %.0f B/op", allocs, bytes)
				if allocs > c.allocs || bytes > c.bytes {
					t.Errorf("4 Gets + 2 Puts: %.1f allocs/op, %.0f B/op, budget %.0f and %.0f", allocs, bytes, c.allocs, c.bytes)
				}

				// Warm the pools, and the store's dirty lists with them: a
				// partition's list of superseded chains is swapped with a spare
				// at every vacuum sweep (one per 1 024 superseding writes), and
				// both grow by appending until they fit what accumulates
				// between two sweeps.
				one, ten := txn(t, db, c.iso, 0, 1), txn(t, db, c.iso, 0, 10)
				for i := 0; i < 1000; i++ {
					one()
					ten()
				}
				a1, b1 := allocsPerCall(one)
				a10, b10 := allocsPerCall(ten)
				t.Logf("1 Put: %.1f allocs/op, %.0f B/op; 10 Puts: %.1f allocs/op, %.0f B/op", a1, b1, a10, b10)
				// Measured: exactly 1 alloc and 48 B, where a write set grown by
				// appending, with a key string per record and per lock, cost 3.8
				// and 240 B.
				if perWrite, perWriteBytes := (a10-a1)/9, (b10-b1)/9; perWrite > 1.1 || perWriteBytes > 56 {
					t.Errorf("each further write costs %.2f allocs and %.0f B, want its version only (1, ≤ 56 B)", perWrite, perWriteBytes)
				}
			})
		}
	}
}

// TestROGetAllocBudget asserts the headline cost claim for the read-only fast
// path: on a quiet database — no read-write transactions, no threat on the
// horizon — a declared read-only Get at Serializable SI allocates exactly what
// a plain-SI Get does. The safe-snapshot check is pure atomic loads and the
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
			measure := func(name string, run func() error) float64 {
				if err := run(); err != nil { // warm the txn pools
					t.Fatal(err)
				}
				got := testing.AllocsPerRun(200, func() {
					if err := run(); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%s: %.1f allocs/op", name, got)
				return got
			}
			si := measure("SI Get", func() error { return db.Run(ssidb.SnapshotIsolation, body) })
			ro := measure("safe-RO SSI Get", func() error { return db.RunReadOnly(ssidb.SerializableSI, body) })
			if si > 2 {
				t.Fatalf("plain-SI Get: %.1f allocs/op, budget 2", si)
			}
			if ro > si {
				t.Fatalf("safe-RO SSI Get: %.1f allocs/op, want ≤ plain-SI %.1f", ro, si)
			}
			if st := db.StatsSnapshot(); st.ROSafePromotions == 0 || st.ROSIReadSkips == 0 {
				t.Fatalf("RO path not exercised: promotions=%d skips=%d", st.ROSafePromotions, st.ROSIReadSkips)
			}
		})
	}
}

// TestRowFootprintAllocBudget asserts what a loaded row keeps alive: its
// 32-byte B+tree slot (36 B with the page's spare slot and allocation class,
// pages being full after an ascending load), the 48-byte chain that is also
// its newest version, its share of interior pages and of its loader's
// creator cell, and the key and value bytes themselves — 4 and 1 here. That
// read 178 B a row while leaves were half-empty pairs of grown slices and the
// chain header and the version were two objects. The partition count (which
// the core count selects by default) must not change it: every partition's
// tree sees an ascending load of its own.
func TestRowFootprintAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("a footprint is not a race; the 200 000-row loads are slow under the detector")
	}
	const rows, budget = 200_000, 112
	for _, tshards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("tshards=%d", tshards), func(t *testing.T) {
			heap := func() uint64 {
				runtime.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			before := heap()
			db := ssidb.Open(ssidb.Options{TableShards: tshards})
			cfg := kvmix.DefaultConfig()
			cfg.Keys = rows
			if err := kvmix.Load(db, cfg); err != nil {
				t.Fatal(err)
			}
			perRow := float64(heap()-before) / rows
			runtime.KeepAlive(db)
			t.Logf("%.1f B/row", perRow)
			if perRow > budget {
				t.Errorf("a loaded row keeps %.1f B alive over %d partitions, budget %d", perRow, tshards, budget)
			}
		})
	}
}
