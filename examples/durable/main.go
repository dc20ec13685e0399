// Durable: open a database directory, commit through the group-commit
// WAL, "crash" (close without checkpointing), and reopen to watch
// recovery replay the log. Run it twice to see state accumulate across
// restarts.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"ssi/ssidb"
)

func main() {
	dir := "durable-demo-data"
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}

	// OpenDir puts a real segmented redo log under the engine and replays
	// whatever a previous process left behind. GroupCommitMaxDelay is the
	// sync linger window: the log's flusher waits up to this long for
	// more committers so one sync covers the whole batch.
	db, err := ssidb.OpenDir(dir, ssidb.Options{
		GroupCommitMaxDelay: 200 * time.Microsecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := db.StatsSnapshot()
	fmt.Printf("opened %s: %d committed transactions replayed from the log\n",
		dir, st.RecoveryReplayed)

	// A round of concurrent commits: each one is durable — its locks are
	// not released until its batch's fsync returns — yet the batch shares
	// fsyncs, so AvgBatchSize climbs above 1 under concurrency.
	const writers = 8
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			errc <- db.RunRetry(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
				key := fmt.Sprintf("writer-%d", w)
				n := 0
				if v, ok, err := tx.Get("counters", []byte(key)); err != nil {
					return err
				} else if ok {
					fmt.Sscanf(string(v), "%d", &n)
				}
				return tx.Put("counters", []byte(key), []byte(fmt.Sprintf("%d", n+1)))
			})
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errc; err != nil {
			log.Fatal(err)
		}
	}

	st = db.StatsSnapshot()
	fmt.Printf("committed %d writes in %d group-commit batches (%d fsyncs, avg batch %.1f)\n",
		st.WALAppends, st.GroupCommitBatches, st.Fsyncs, st.AvgBatchSize)

	// Close flushes but keeps the log: the next run replays it. Call
	// db.Checkpoint() first to fold the log into an image and truncate it.
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("closed; run again to watch recovery replay these commits")
}
