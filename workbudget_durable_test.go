package ssi_test

import (
	"testing"

	"ssi/internal/workload/kvmix"
	"ssi/ssidb"
)

// TestDurableWorkBudget counts the log work of a durable commit from
// ssidb.Stats, so it runs in the default build. One goroutine commits at a
// time and the flusher syncs at once (GroupCommitMaxDelay 0), so every batch
// is one record: the kv-uniform transaction (4 Gets + 2 Puts at
// SerializableSI) appends exactly one record and waits for exactly one
// fsync. A transaction that writes nothing appends no record at SI or SSI,
// and what it read is durable already — every commit before it waited for
// its own record — so it waits for no fsync either. Automatic checkpoints are
// off, and the load fills a fraction of the first 64 MiB segment, so no
// segment roll adds a sync.
func TestDurableWorkBudget(t *testing.T) {
	db, err := ssidb.OpenDir(t.TempDir(), ssidb.Options{Detector: ssidb.DetectorPrecise, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := kvmix.Load(db, kvmix.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	const n = 500
	// exact runs one warm-up and then n transactions, and holds their
	// appends and fsyncs to exactly n times want each.
	exact := func(what string, run func(), appends, fsyncs uint64) {
		run()
		before := db.StatsSnapshot()
		for i := 0; i < n; i++ {
			run()
		}
		after := db.StatsSnapshot()
		gotAppends, gotFsyncs := after.WALAppends-before.WALAppends, after.Fsyncs-before.Fsyncs
		t.Logf("%s: %d appends, %d fsyncs over %d transactions", what, gotAppends, gotFsyncs, n)
		if gotAppends != n*appends || gotFsyncs != n*fsyncs {
			t.Errorf("%s: %d appends and %d fsyncs over %d transactions, want %d and %d each", what, gotAppends, gotFsyncs, n, appends, fsyncs)
		}
	}
	exact("4 Gets + 2 Puts", shapedTxn(t, db, ssidb.SerializableSI, txnShape{gets: 4, puts: 2}), 1, 1)
	exact("4 Gets at SI", shapedTxn(t, db, ssidb.SnapshotIsolation, txnShape{gets: 4}), 0, 0)
	exact("4 Gets at SSI", shapedTxn(t, db, ssidb.SerializableSI, txnShape{gets: 4}), 0, 0)
}
