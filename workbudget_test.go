//go:build workcount

package ssi_test

import (
	"fmt"
	"testing"

	"ssi/internal/btree"
	"ssi/internal/core"
	"ssi/internal/lock"
	"ssi/internal/mvcc"
	"ssi/internal/workload/kvmix"
	"ssi/internal/workload/smallbank"
	"ssi/ssidb"
)

// scanReader returns the scan-readmostly reader on a kvmix load: a declared
// read-only transaction at iso of 4 Gets and a 64-row Scan.
func scanReader(t *testing.T, db *ssidb.DB, iso ssidb.Isolation) func() {
	from, to := kvmix.Key(0x1000), kvmix.Key(0x1000+64)
	next := 0
	return func() {
		if err := db.RunReadOnly(iso, func(tx *ssidb.Txn) error {
			for i := 0; i < 4; i++ {
				next++
				if _, _, err := tx.Get(kvmix.Table, kvmix.Key(next%4096*2)); err != nil {
					return err
				}
			}
			return tx.Scan(kvmix.Table, from, to, func(k, v []byte) bool { return true })
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// promotedReader returns the scan-readmostly reader at SerializableSI — a
// declared read-only transaction promoted to a safe snapshot — and a check
// that its next runs were all promoted.
func promotedReader(t *testing.T, db *ssidb.DB, runs uint64) (reader, promotedAll func()) {
	reader = scanReader(t, db, ssidb.SerializableSI)
	before := db.StatsSnapshot().ROSafePromotions
	return reader, func() {
		if promoted := db.StatsSnapshot().ROSafePromotions - before; promoted != runs {
			t.Errorf("%d of %d readers promoted, want all", promoted, runs)
		}
	}
}

// absentPuts returns a transaction of one SI Put of a key the table has no
// row for, on a kvmix load: every call inserts the next key past the load's
// last, so the key lands at the right edge of its tree and has no successor.
func absentPuts(t *testing.T, db *ssidb.DB) func() {
	return absentPutsAt(t, db, ssidb.SnapshotIsolation)
}

// absentPutsAt is absentPuts at iso.
func absentPutsAt(t *testing.T, db *ssidb.DB, iso ssidb.Isolation) func() {
	next := kvmix.DefaultConfig().Keys
	val := []byte("v")
	return func() {
		next++
		if err := db.Run(iso, func(tx *ssidb.Txn) error { return tx.Put(kvmix.Table, kvmix.Key(next), val) }); err != nil {
			t.Fatal(err)
		}
	}
}

// amalgamates returns SmallBank Amalgamates at SerializableSI on a fresh load
// of bank, call j (from 0) moving customer 2(j+1)'s funds to customer
// 2(j+1)+1, and the account ids call j touches.
func amalgamates(t *testing.T, bank *ssidb.DB) (run func(), ids func(call int) (id1, id2 []byte)) {
	run = amalgamatesAt(t, bank, ssidb.SerializableSI)
	accounts := smallbank.DefaultConfig().Accounts
	ids = func(call int) (id1, id2 []byte) {
		n1 := 2 * (call + 1) % accounts // call 0 is the first
		if err := bank.RunReadOnly(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			v1, _, err := tx.Get(smallbank.TableAccount, smallbank.Name(n1))
			if err != nil {
				return err
			}
			v2, _, err := tx.Get(smallbank.TableAccount, smallbank.Name(n1+1))
			id1, id2 = append([]byte(nil), v1...), append([]byte(nil), v2...)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return id1, id2
	}
	return run, ids
}

// amalgamatesAt returns the Amalgamates of amalgamates at iso.
func amalgamatesAt(t *testing.T, bank *ssidb.DB, iso ssidb.Isolation) func() {
	if err := smallbank.Load(bank, smallbank.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	accounts := smallbank.DefaultConfig().Accounts
	acct := 0
	return func() {
		acct = (acct + 2) % accounts
		if err := bank.Run(iso, func(tx *ssidb.Txn) error { return smallbank.Amalgamate(tx, acct, acct+1) }); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLockWorkBudget counts what the lock manager does per transaction, in
// the workcount build only (the default build compiles the hooks to
// nothing): run it, and TestStoreWorkBudget and TestCoreWorkBudget, with
//
//	go test -tags workcount -run WorkBudget .
//
// A SI or SSI write takes no lock-table entry at row granularity: its
// uncommitted version is its write lock, and it probes the row key's entry —
// a shard hold and two key hashes (shardIndex and the lookup), no insert —
// for SIREAD holders and blocking locks, inside the latch hold that installs
// it (package lock, "Implicit row locks"). Nor does an SSI point read of an
// existing row: its SIREAD is the row's reader word, set in the latch hold
// that reads the row (mvcc.Table.ReadAs), and the write's hold reads the word
// beside the probe.
//
// The repository benchmark's kv-uniform transaction — 4 Gets and 2 Puts on
// existing rows at SerializableSI — therefore takes no lock: its Gets
// register on their rows, and its 2 probes find no entry, 2 shard holds and
// 4 key hashes. No owner mutex is held: the transaction never took a lock, so
// the commit's question whether SIREAD locks are left and both releases
// return at once. The retirement clears the 4 words in the row store. (With
// an SIREAD entry per Get the same transaction made 4 requests, 10 shard and
// 7 owner holds and 20 key hashes; with an Exclusive entry per Put as well,
// 6 requests, 12 shard and 9 owner holds and 24 key hashes; with the owner's
// key map too, 17 owner holds and 54 hashes.)
//
// A SmallBank Amalgamate reads 5 rows (the two customers' account rows, the
// first one's saving and checking balances and the second one's checking
// balance) and writes 3 of them (both checking balances, the first saving
// balance): 3 probes, each a shard hold and 2 hashes, finding no entry, and
// no request. Each write is on a row the transaction read, so its hold finds
// its own registration in the word and drops it (§3.7.3), in the store. 0 /
// 3 / 3 / 0 / 6. (With an SIREAD entry per Get: 5 requests, 10 shard holds,
// 11 owner holds, 26 hashes; with Exclusive entries as well: 8 requests, 13
// shard holds, 11 owner holds, 26 hashes.)
//
// One SI Put of a key without a row, on a lock table of one shard: no
// request, and 1 probe. The insert also hands the SIREAD locks of the gap it
// splits to the new key's gap (Inherit): one hold of the shard for both
// gap keys, two key hashes to find their shard and one lookup, which finds no
// reader. 2 shard holds, 5 key hashes, and no owner hold: the transaction
// never took a lock, so its releases return at once. (With an Exclusive
// entry: 1 request, 3 shard holds, 2 owner holds, 9 key hashes.)
//
// A declared read-only reader promoted to a safe snapshot at its first read —
// the scan-readmostly reader, 4 Gets and a 64-row Scan — takes no lock and
// holds no mutex of the lock manager at all.
func TestLockWorkBudget(t *testing.T) {
	for _, tshards := range []int{1, 8} {
		t.Run(fmt.Sprintf("tshards=%d", tshards), func(t *testing.T) {
			db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards, LockShards: 8})
			if err := kvmix.Load(db, kvmix.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
			const n = 500
			// exact runs one warm-up and then n transactions, and holds their
			// total work to exactly n times want.
			exact := func(what string, run func(), want lock.Work) {
				run()
				before := lock.ReadWork()
				for i := 0; i < n; i++ {
					run()
				}
				got := lock.ReadWork().Sub(before)
				t.Logf("%s: %+v over %d transactions", what, got, n)
				if got != (lock.Work{Acquires: n * want.Acquires, Probes: n * want.Probes, ShardLocks: n * want.ShardLocks, OwnerLocks: n * want.OwnerLocks, KeyHashes: n * want.KeyHashes}) {
					t.Errorf("%s: %+v over %d transactions, want %+v each", what, got, n, want)
				}
			}

			exact("4 Gets + 2 Puts", shapedTxn(t, db, ssidb.SerializableSI, txnShape{gets: 4, puts: 2}),
				lock.Work{Probes: 2, ShardLocks: 2, KeyHashes: 4})

			run, _ := amalgamates(t, ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards, LockShards: 8}))
			exact("Amalgamate", run, lock.Work{Probes: 3, ShardLocks: 3, KeyHashes: 6})

			ins := ssidb.Open(ssidb.Options{TableShards: tshards, LockShards: 1})
			if err := kvmix.Load(ins, kvmix.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
			exact("SI Put of an absent key", absentPuts(t, ins), lock.Work{Probes: 1, ShardLocks: 2, KeyHashes: 5})

			reader, promotedAll := promotedReader(t, db, n+1)
			exact("promoted reader, 4 Gets + a 64-row Scan", reader, lock.Work{})
			promotedAll()
		})
	}
}

// TestStoreWorkBudget counts what the row store and its trees do per
// transaction, in the workcount build: partition-latch holds, shared and
// exclusive apart, and the versions readChain (point reads, scanned rows) and
// a write's latch hold (the head it decides on) look at; and the B+tree
// descents, each a lookup, an insert or a seek, with the pages they enter.
// Every chain here holds one committed version: each writer's retirement
// prunes what it superseded before the next transaction begins.
//
// The kv-uniform transaction at SerializableSI: a Get locates its row, reads
// it and registers in its reader word, all in one shared hold (one descent,
// one version, one registration); a Put locates its row (one shared hold, one
// descent) and claims it through the handle — decides on its head (one
// version), probes the lock table, reads the word and installs — in one
// exclusive hold. 4 Gets and 2 Puts: 4 + 2 = 6 shared holds, 2 exclusive, 6
// versions, 6 descents and 4 registrations. The retirement prunes the 2 rows
// written and clears the 4 words read, one exclusive hold per partition the
// six rows lie in: at TableShards 1 that is 1, for 3 exclusive holds; at 8 it
// is 1 to 6, so the test holds the n-transaction total, 2n plus the
// partitions of each transaction's rows, computed here from the keys with the
// store's partition hash. (With an SIREAD entry per Get, a Get located its
// row, to name the lock, and read it in a second hold: 10 shared holds, and
// the retirement held only the written rows' partitions. Before a write's
// decision and install became one hold, a Put also held the latch shared to
// check First-Committer-Wins: 12 shared holds.)
//
// A SmallBank Amalgamate: 5 Gets and 3 Puts, so 5 + 3 = 8 shared holds, 3
// exclusive, 8 versions, 8 descents and 5 registrations, 3 of which its
// Puts clear (each writes a row it read, §3.7.3); its retirement prunes the
// saving balance in one partition of its table and the two checking balances
// in one or two of theirs, and clears the words of the two account rows in
// one or two of theirs: 5 clears.
//
// One SI Put of a key without a row: a locate that misses (one shared hold,
// one descent), then a claim that takes every partition latch, looks the key
// up again and inserts it (two descents), seeks its successor in every
// partition (TableShards descents) and installs into the empty chain (no
// version to look at); the retirement prunes the row in one exclusive hold.
// 1 shared hold, TableShards + 1 exclusive, no version, 3 + TableShards
// descents. (Before: six descents, the locate done twice, a shared pre-lookup
// in Write and a lookup before the insert, and 2 + TableShards exclusive
// holds.)
//
// The promoted scan-readmostly reader reads without locks, so a Get is one
// shared hold (read by key, one descent) and one version; its Scan of 64 rows
// is one round (ScanChunk is 256), which holds every partition latch shared
// once, seeks an iterator in each, and reads the 64 rows and the key at the
// range's end that stops it: 65 versions. In all 4 + TableShards shared
// holds and as many descents, no exclusive one and 69 versions.
//
// The kvmix rows load in key order, which fills every leaf (a split at the
// right edge keeps the full page): 10 000 rows make 157 leaves in one
// partition, under an interior level under the root, so every descent enters
// 3 pages at TableShards 1; the ≈ 1 250 rows of each of 8 partitions make ≈ 20
// leaves under a root, 2 pages. SmallBank's 1 000 rows a table make 16 leaves,
// or 2 per partition at 8: 2 pages.
func TestStoreWorkBudget(t *testing.T) {
	for _, tshards := range []int{1, 8} {
		t.Run(fmt.Sprintf("tshards=%d", tshards), func(t *testing.T) {
			db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards, LockShards: 8})
			if err := kvmix.Load(db, kvmix.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
			const n = 500
			partition := func(key []byte) uint32 {
				return core.Fnv32aBytes(core.Fnv32aInit(), key) & uint32(tshards-1)
			}
			// exact runs one warm-up and then n transactions, and holds their
			// total work to want, and their descents to descents, each
			// entering pages pages.
			exact := func(what string, run func(), want mvcc.Work, descents, pages uint64) {
				run()
				before, beforeTree := mvcc.ReadWork(), btree.ReadWork()
				for i := 0; i < n; i++ {
					run()
				}
				got, tree := mvcc.ReadWork().Sub(before), btree.ReadWork().Sub(beforeTree)
				t.Logf("%s: %+v, %+v over %d transactions", what, got, tree, n)
				if got != want {
					t.Errorf("%s: %+v over %d transactions, want %+v", what, got, n, want)
				}
				if tree != (btree.Work{Descents: descents, Nodes: descents * pages}) {
					t.Errorf("%s: %+v over %d transactions, want %d descents of %d pages", what, tree, n, descents, pages)
				}
			}
			kvPages := uint64(3)
			if tshards == 8 {
				kvPages = 2
			}

			// shapedTxn's transaction j (the warm-up is 0) Gets its key
			// numbers 6j+1 … 6j+4 of the key set and Puts 6j+5 and 6j+6.
			pruned := uint64(0)
			for j := 1; j <= n; j++ {
				parts := map[uint32]bool{}
				for k := 6*j + 1; k <= 6*j+6; k++ {
					parts[partition(kvmix.Key(k%4096*2))] = true
				}
				pruned += uint64(len(parts))
			}
			exact("4 Gets + 2 Puts", shapedTxn(t, db, ssidb.SerializableSI, txnShape{gets: 4, puts: 2}),
				mvcc.Work{SharedLatches: n * 6, ExclusiveLatches: n*2 + pruned, VersionsWalked: n * 6, Registrations: n * 4, Clears: n * 4}, n*6, kvPages)

			run, ids := amalgamates(t, ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards, LockShards: 8}))
			pruned = 0
			for j := 1; j <= n; j++ {
				pruned += 3 // the saving table's row, the checking table's first, the account table's first
				if id1, id2 := ids(j); partition(id1) != partition(id2) {
					pruned++
				}
				if n1 := 2 * (j + 1) % smallbank.DefaultConfig().Accounts; partition(smallbank.Name(n1)) != partition(smallbank.Name(n1+1)) {
					pruned++
				}
			}
			exact("Amalgamate", run, mvcc.Work{SharedLatches: n * 8, ExclusiveLatches: n*3 + pruned, VersionsWalked: n * 8, Registrations: n * 5, Clears: n * 5}, n*8, 2)

			ins := ssidb.Open(ssidb.Options{TableShards: tshards})
			if err := kvmix.Load(ins, kvmix.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
			exact("SI Put of an absent key", absentPuts(t, ins),
				mvcc.Work{SharedLatches: n, ExclusiveLatches: n * uint64(tshards+1)}, n*uint64(3+tshards), kvPages)

			reader, promotedAll := promotedReader(t, db, n+1)
			exact("promoted reader, 4 Gets + a 64-row Scan", reader,
				mvcc.Work{SharedLatches: n * uint64(4+tshards), VersionsWalked: n * 69}, n*uint64(4+tshards), kvPages)
			promotedAll()
		})
	}
}

// TestCoreWorkBudget counts what the conflict core does per transaction, in
// the workcount build: MarkConflict calls, and entries queued on and drained
// from the registry shards' retirement queues.
//
// On a quiet database no transaction overlaps another, so a lock finds no
// concurrent rival and no read a concurrent writer: no MarkConflict call. A
// committed writer is queued once — it hands its written rows, and the rows
// whose reader words its reads set, to the retire hook — and, its commit
// preceding every active snapshot, drained by its own FinishWith: 1 queued
// and 1 drained, for the kv-uniform transaction and the SmallBank Amalgamate
// alike. The promoted scan-readmostly reader holds no lock, registers on no
// row and writes nothing, so it is never queued: 0, 0, 0.
func TestCoreWorkBudget(t *testing.T) {
	db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, LockShards: 8})
	if err := kvmix.Load(db, kvmix.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	const n = 500
	// exact runs one warm-up and then n transactions, and holds their total
	// work to exactly n times want.
	exact := func(what string, run func(), want core.Work) {
		run()
		before := core.ReadWork()
		for i := 0; i < n; i++ {
			run()
		}
		got := core.ReadWork().Sub(before)
		t.Logf("%s: %+v over %d transactions", what, got, n)
		if got != (core.Work{Marks: n * want.Marks, Queued: n * want.Queued, Drained: n * want.Drained}) {
			t.Errorf("%s: %+v over %d transactions, want %+v each", what, got, n, want)
		}
	}

	exact("4 Gets + 2 Puts", shapedTxn(t, db, ssidb.SerializableSI, txnShape{gets: 4, puts: 2}),
		core.Work{Queued: 1, Drained: 1})

	run, _ := amalgamates(t, ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, LockShards: 8}))
	exact("Amalgamate", run, core.Work{Queued: 1, Drained: 1})

	reader, promotedAll := promotedReader(t, db, n+1)
	exact("promoted reader, 4 Gets + a 64-row Scan", reader, core.Work{})
	promotedAll()
}
