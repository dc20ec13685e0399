//go:build workcount

package ssi_test

import (
	"fmt"
	"testing"

	"ssi/internal/lock"
	"ssi/internal/workload/kvmix"
	"ssi/ssidb"
)

// TestLockWorkBudget counts what the lock manager does per transaction, in
// the workcount build only (the default build compiles the hooks to
// nothing): run it with
//
//	go test -tags workcount -run WorkBudget .
//
// The repository benchmark's kv-uniform transaction — 4 Gets and 2 Puts on
// existing rows at SerializableSI — takes 6 locks: an SIREAD per Get and an
// exclusive row lock per Put, each one request and one hold of its key's
// shard mutex. The commit releases the two exclusive locks (one shard hold
// each) and, the transaction's commit preceding every active snapshot on this
// quiet database, its own retirement releases the four SIREADs (one each):
// 12 shard holds. The owner's mutex is held once per grant (6), once per key
// released (6), and around each of the two releases' key snapshot and map
// hand-back (4), plus once to ask whether SIREAD locks are left at commit: 17.
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
				if got != (lock.Work{Acquires: n * want.Acquires, ShardLocks: n * want.ShardLocks, OwnerLocks: n * want.OwnerLocks}) {
					t.Errorf("%s: %+v over %d transactions, want %+v each", what, got, n, want)
				}
			}

			exact("4 Gets + 2 Puts", shapedTxn(t, db, ssidb.SerializableSI, txnShape{gets: 4, puts: 2}),
				lock.Work{Acquires: 6, ShardLocks: 12, OwnerLocks: 17})

			from, to := kvmix.Key(0x1000), kvmix.Key(0x1000+64)
			next := 0
			reader := func() {
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
			exact("promoted reader, 4 Gets + a 64-row Scan", reader, lock.Work{})
			if promoted := db.StatsSnapshot().ROSafePromotions - before; promoted != n+1 {
				t.Errorf("%d of %d readers promoted, want all", promoted, n+1)
			}
		})
	}
}
