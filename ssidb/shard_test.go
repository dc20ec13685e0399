package ssidb_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ssi/ssidb"
)

// shardStatsPattern drives a deterministic set of overlapping transactions
// across several tables and returns them still active: each transaction
// point-reads shared keys (SIREAD), upserts its own keys (row exclusive +
// insert-protocol gap locks) and leaves everything held.
func shardStatsPattern(t *testing.T, db *ssidb.DB) []*ssidb.Txn {
	t.Helper()
	var txns []*ssidb.Txn
	for i := 0; i < 4; i++ {
		txns = append(txns, db.Begin(ssidb.SerializableSI))
	}
	for i, tx := range txns {
		for tbl := 0; tbl < 5; tbl++ {
			table := fmt.Sprintf("tbl%d", tbl)
			for k := 0; k < 3; k++ {
				if _, _, err := tx.Get(table, []byte(fmt.Sprintf("shared%d", k))); err != nil {
					t.Fatal(err)
				}
				if err := tx.Put(table, []byte(fmt.Sprintf("own%d_%d", i, k)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return txns
}

// TestStatsAggregationAcrossShards runs the same deterministic workload on
// a single-shard database (the paper's global lock-table latch) and a
// 64-shard database and checks that the aggregated LockedKeys/LockOwners
// census is identical — sharding must be invisible to the bookkeeping — and
// that both drain to zero once the transactions finish and cleanup runs.
func TestStatsAggregationAcrossShards(t *testing.T) {
	type run struct {
		db   *ssidb.DB
		txns []*ssidb.Txn
	}
	var runs []run
	for _, shards := range []int{1, 64} {
		db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, LockShards: shards})
		runs = append(runs, run{db, shardStatsPattern(t, db)})
	}
	s1 := runs[0].db.StatsSnapshot()
	sN := runs[1].db.StatsSnapshot()
	if s1.LockOwners != 4 || s1.LockedKeys == 0 {
		t.Fatalf("implausible single-shard census: %+v", s1)
	}
	if s1.LockedKeys != sN.LockedKeys || s1.LockOwners != sN.LockOwners {
		t.Fatalf("census diverges across shard counts: 1 shard %+v, 64 shards %+v", s1, sN)
	}

	for _, r := range runs {
		for _, tx := range r.txns {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		// All transactions are finished; the final commit's drain retires
		// every suspended record and releases its SIREAD locks.
		st := r.db.StatsSnapshot()
		if st.ActiveTxns != 0 || st.SuspendedTxns != 0 || st.LockedKeys != 0 || st.LockOwners != 0 {
			t.Fatalf("bookkeeping did not drain (%d lock shards): %+v", r.db.LockShards(), st)
		}
	}
}

// TestStatsDrainUnderConcurrency churns concurrent transactions over many
// tables on a many-shard database and verifies every census counter returns
// to zero at quiescence — no lock, registry or suspension entry may leak
// whatever interleaving commits, aborts and retirements take.
func TestStatsDrainUnderConcurrency(t *testing.T) {
	db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, LockShards: 32})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < 150; i++ {
				db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
					table := fmt.Sprintf("tbl%d", r.Intn(4))
					k := []byte{byte('a' + r.Intn(8))}
					if r.Intn(2) == 0 {
						if _, _, err := tx.Get(table, k); err != nil {
							return err
						}
					}
					return tx.Put(table, k, []byte{byte(i)})
				})
			}
		}(g)
	}
	wg.Wait()
	st := db.StatsSnapshot()
	if st.ActiveTxns != 0 || st.SuspendedTxns != 0 || st.LockedKeys != 0 || st.LockOwners != 0 {
		t.Fatalf("bookkeeping leaked after concurrent churn: %+v", st)
	}
}

// TestLockShardsOption pins the Options.LockShards plumbing.
func TestLockShardsOption(t *testing.T) {
	if got := ssidb.Open(ssidb.Options{LockShards: 5}).LockShards(); got != 8 {
		t.Fatalf("LockShards(5) rounded to %d, want 8", got)
	}
	if got := ssidb.Open(ssidb.Options{}).LockShards(); got < 1 {
		t.Fatalf("default LockShards = %d", got)
	}
}
