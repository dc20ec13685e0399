//go:build workcount

package ssi_test

import (
	"fmt"
	"testing"

	"ssi/internal/core"
	"ssi/internal/lock"
	"ssi/internal/mvcc"
	"ssi/internal/workload/kvmix"
	"ssi/internal/workload/smallbank"
	"ssi/ssidb"
)

// promotedReader returns the scan-readmostly reader on a kvmix load — a
// declared read-only SerializableSI transaction of 4 Gets and a 64-row Scan —
// and a check that its next runs were all promoted to a safe snapshot.
func promotedReader(t *testing.T, db *ssidb.DB, runs uint64) (reader, promotedAll func()) {
	from, to := kvmix.Key(0x1000), kvmix.Key(0x1000+64)
	next := 0
	reader = func() {
		if err := db.RunReadOnly(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
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
	before := db.StatsSnapshot().ROSafePromotions
	return reader, func() {
		if promoted := db.StatsSnapshot().ROSafePromotions - before; promoted != runs {
			t.Errorf("%d of %d readers promoted, want all", promoted, runs)
		}
	}
}

// TestLockWorkBudget counts what the lock manager does per transaction, in
// the workcount build only (the default build compiles the hooks to
// nothing): run it, and TestStoreWorkBudget and TestCoreWorkBudget, with
//
//	go test -tags workcount -run WorkBudget .
//
// The repository benchmark's kv-uniform transaction — 4 Gets and 2 Puts on
// existing rows at SerializableSI — takes 6 locks: an SIREAD per Get and an
// exclusive row lock per Put, each one request and one hold of its key's
// shard mutex. The commit releases the two exclusive locks (one shard hold
// each) and, the transaction's commit preceding every active snapshot on this
// quiet database, its own retirement releases the four SIREADs (one each):
// 12 shard holds. The owner's mutex is held once per grant (6), once by each
// of the two releases to take its entries off the owner's list (2) — the
// commit puts none back, as it leaves no SIREAD on a row it wrote — and once
// to ask whether SIREAD locks are left at commit: 9. Every lock is on a key
// no other transaction holds, so its acquire hashes the key three times
// (shardIndex, the table lookup that misses, the insert) and its release once
// (the delete of the emptied entry; the release reaches the entry and its
// shard through the owner's list): 24 key hashes. (With the owner's key map
// the same transaction held the owner's mutex 17 times — once per key
// released and twice more per release — and hashed each key 9 times: twice
// in shardIndex, four times in the shard's table and three in the key map,
// 54 in all.)
//
// A SmallBank Amalgamate reads 5 rows (the two customers' account rows, the
// first one's saving and checking balances and the second one's checking
// balance) and writes 3 of them (both checking balances, the first saving
// balance): 8 requests, one shard hold each. Each exclusive lock is on a row
// the transaction read, so its grant discards that row's SIREAD (§3.7.3); the
// commit releases the 3 exclusive locks and the retirement the 2 SIREADs left
// on the account rows: 13 shard holds. Owner mutex: 8 grants, 1 per release,
// 1 at commit: 11. Key hashes: 3 per row read, 2 per write (shardIndex and
// the lookup that finds the read's entry), 1 per entry emptied by a release:
// 15 + 6 + 5 = 26.
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
				if got != (lock.Work{Acquires: n * want.Acquires, ShardLocks: n * want.ShardLocks, OwnerLocks: n * want.OwnerLocks, KeyHashes: n * want.KeyHashes}) {
					t.Errorf("%s: %+v over %d transactions, want %+v each", what, got, n, want)
				}
			}

			exact("4 Gets + 2 Puts", shapedTxn(t, db, ssidb.SerializableSI, txnShape{gets: 4, puts: 2}),
				lock.Work{Acquires: 6, ShardLocks: 12, OwnerLocks: 9, KeyHashes: 24})

			bank := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards, LockShards: 8})
			if err := smallbank.Load(bank, smallbank.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
			acct := 0
			exact("Amalgamate", func() {
				acct = (acct + 2) % smallbank.DefaultConfig().Accounts
				if err := bank.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error { return smallbank.Amalgamate(tx, acct, acct+1) }); err != nil {
					t.Fatal(err)
				}
			}, lock.Work{Acquires: 8, ShardLocks: 13, OwnerLocks: 11, KeyHashes: 26})

			reader, promotedAll := promotedReader(t, db, n+1)
			exact("promoted reader, 4 Gets + a 64-row Scan", reader, lock.Work{})
			promotedAll()
		})
	}
}

// TestStoreWorkBudget counts what the row store does per transaction, in the
// workcount build: partition-latch holds, shared and exclusive apart, and the
// versions readChain (point reads, scanned rows) and NewestCommitTS (the
// First-Committer-Wins check) walk. Every chain here holds one committed
// version: each writer's retirement prunes what it superseded before the
// next transaction begins.
//
// The kv-uniform transaction at SerializableSI: a Get locates its row (one
// shared hold), to name its SIREAD lock, then reads it through the handle
// (one shared hold, one version); a Put locates its row (one shared), checks
// First-Committer-Wins (one shared, one version) and installs its version
// (one exclusive). 4 Gets and 2 Puts: 8 + 4 = 12 shared holds, 2 exclusive
// and 4 + 2 = 6 versions. The retirement prunes the 2 rows written, one
// exclusive hold per partition they lie in: at TableShards 1 that is 1, for
// 3 exclusive holds; at 8 it is 1 or 2, so the test holds the n-transaction
// total, 2n plus the partitions each transaction's two Puts span, computed
// here from the keys with the store's partition hash.
//
// The promoted scan-readmostly reader reads without locks, so a Get is one
// shared hold (read by key) and one version; its Scan of 64 rows is one round
// (ScanChunk is 256), which holds every partition latch shared once, and reads
// the 64 rows and the key at the range's end that stops it: 65 versions. In
// all 4 + TableShards shared holds, no exclusive one and 69 versions.
func TestStoreWorkBudget(t *testing.T) {
	for _, tshards := range []int{1, 8} {
		t.Run(fmt.Sprintf("tshards=%d", tshards), func(t *testing.T) {
			db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards, LockShards: 8})
			if err := kvmix.Load(db, kvmix.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
			const n = 500
			// exact runs one warm-up and then n transactions, and holds their
			// total work to want.
			exact := func(what string, run func(), want mvcc.Work) {
				run()
				before := mvcc.ReadWork()
				for i := 0; i < n; i++ {
					run()
				}
				got := mvcc.ReadWork().Sub(before)
				t.Logf("%s: %+v over %d transactions", what, got, n)
				if got != want {
					t.Errorf("%s: %+v over %d transactions, want %+v", what, got, n, want)
				}
			}

			// shapedTxn's transaction j (the warm-up is 0) Puts its key
			// numbers 6j+5 and 6j+6 of the key set.
			pruned := uint64(0)
			partition := func(i int) uint32 {
				return core.Fnv32aBytes(core.Fnv32aInit(), kvmix.Key(i%4096*2)) & uint32(tshards-1)
			}
			for j := 1; j <= n; j++ {
				pruned++
				if partition(6*j+5) != partition(6*j+6) {
					pruned++
				}
			}
			exact("4 Gets + 2 Puts", shapedTxn(t, db, ssidb.SerializableSI, txnShape{gets: 4, puts: 2}),
				mvcc.Work{SharedLatches: n * 12, ExclusiveLatches: n*2 + pruned, VersionsWalked: n * 6})

			reader, promotedAll := promotedReader(t, db, n+1)
			exact("promoted reader, 4 Gets + a 64-row Scan", reader,
				mvcc.Work{SharedLatches: n * uint64(4+tshards), VersionsWalked: n * 69})
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
// committed writer is queued once — it holds SIREAD locks, and it hands its
// written rows to the retire hook — and, its commit preceding every active
// snapshot, drained by its own FinishWith: 1 queued and 1 drained, for the
// kv-uniform transaction and the SmallBank Amalgamate alike. The promoted
// scan-readmostly reader holds no lock and writes nothing, so it is never
// queued: 0, 0, 0.
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

	bank := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, LockShards: 8})
	if err := smallbank.Load(bank, smallbank.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	acct := 0
	exact("Amalgamate", func() {
		acct = (acct + 2) % smallbank.DefaultConfig().Accounts
		if err := bank.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error { return smallbank.Amalgamate(tx, acct, acct+1) }); err != nil {
			t.Fatal(err)
		}
	}, core.Work{Queued: 1, Drained: 1})

	reader, promotedAll := promotedReader(t, db, n+1)
	exact("promoted reader, 4 Gets + a 64-row Scan", reader, core.Work{})
	promotedAll()
}
