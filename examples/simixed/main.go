// Mixing isolation levels (thesis §3.8): long read-only reports run at plain
// snapshot isolation — no SIREAD locks, no chance of an unsafe abort — while
// updates run at Serializable SI, so write skew among the updates is still
// impossible. The paper expects this to be the popular production
// configuration; the cost is that the *reports themselves* may observe a
// state no serial execution produces (the read-only anomaly), which many
// applications accept.
//
// The second half of the example shows the alternative this repository adds:
// the report declared read-only at Serializable SI (BeginReadOnly). The
// declared reader still installs incoming edges at the writers it
// anti-depends on, so the pivot of the read-only anomaly aborts and every
// report is serializable — and once the reader's snapshot is safe it reads
// SIREAD-free at plain-SI cost anyway.
package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"ssi/internal/sercheck"
	"ssi/internal/workload/sibench"
	"ssi/ssidb"
)

func main() {
	db := ssidb.Open(ssidb.Options{})
	cfg := sibench.Config{Items: 100}
	if err := sibench.Load(db, cfg); err != nil {
		panic(err)
	}

	var queryCommits, queryAborts, updateCommits, updateAborts atomic.Uint64
	var wg sync.WaitGroup

	// Reporting clients: plain SI queries.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
					_, err := sibench.Query(tx)
					return err
				})
				if err == nil {
					queryCommits.Add(1)
				} else {
					queryAborts.Add(1)
				}
			}
		}()
	}
	// Update clients: Serializable SI.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
					return sibench.Update(tx, uint32((g*31+i)%cfg.Items))
				})
				if err == nil {
					updateCommits.Add(1)
				} else {
					updateAborts.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	fmt.Printf("SI queries:   %d committed, %d aborted\n", queryCommits.Load(), queryAborts.Load())
	fmt.Printf("SSI updates:  %d committed, %d aborted\n", updateCommits.Load(), updateAborts.Load())

	total, _ := sibench.TotalIncrements(db)
	fmt.Printf("sum of values = %d, committed updates = %d (equal: %v)\n",
		total, updateCommits.Load(), total == uint64(updateCommits.Load()))
	if queryAborts.Load() == 0 {
		fmt.Println("no query ever aborted: SI readers take no SIREAD locks and cannot be unsafe victims")
	}
	_ = binary.BigEndian // keep encoding/binary for illustrative edits

	// The price of the mixed configuration, made concrete: the canonical
	// read-only anomaly (Fekete et al. 2004, Example 3 / thesis §3.8) run
	// deterministically. With the report at plain SI all three transactions
	// commit and the recorded history is non-serializable; with the report
	// declared read-only at Serializable SI the pivot aborts and the history
	// is serializable.
	fmt.Println()
	runAnomaly("report at plain SI (undeclared)", func(db *ssidb.DB) *ssidb.Txn {
		return db.Begin(ssidb.SnapshotIsolation)
	})
	runAnomaly("report via BeginReadOnly at SSI", func(db *ssidb.DB) *ssidb.Txn {
		return db.BeginReadOnly(ssidb.SerializableSI)
	})
}

// runAnomaly executes the read-only anomaly schedule: the pivot reads y, a
// second updater writes y and z and commits, the report then reads x and z
// and commits, and finally the pivot writes x and tries to commit. Only the
// report's begin differs between the two configurations.
func runAnomaly(label string, beginReport func(db *ssidb.DB) *ssidb.Txn) {
	hist := sercheck.NewHistory()
	db := ssidb.Open(ssidb.Options{Recorder: hist})
	if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		for _, k := range []string{"x", "y", "z"} {
			if err := tx.Put("t", []byte(k), i64(0)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		panic(err)
	}

	pivot := db.Begin(ssidb.SerializableSI)
	if _, _, err := pivot.Get("t", []byte("y")); err != nil {
		panic(err)
	}
	outErr := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		if err := tx.Put("t", []byte("y"), i64(10)); err != nil {
			return err
		}
		return tx.Put("t", []byte("z"), i64(10))
	})
	report := beginReport(db)
	reportErr := func() error {
		for _, k := range []string{"x", "z"} {
			if _, _, err := report.Get("t", []byte(k)); err != nil {
				return err
			}
		}
		return report.Commit()
	}()
	pivotErr := pivot.Put("t", []byte("x"), i64(5))
	if pivotErr == nil {
		pivotErr = pivot.Commit()
	}

	serializable, _ := hist.Serializable()
	fmt.Printf("%s:\n", label)
	fmt.Printf("  updater=%v report=%v pivot=%v\n", errLabel(outErr), errLabel(reportErr), errLabel(pivotErr))
	fmt.Printf("  history serializable: %v\n", serializable)
	st := db.StatsSnapshot()
	if st.ROBegins > 0 {
		fmt.Printf("  declared-RO begins: %d, safe-snapshot promotions: %d, SIREADs skipped: %d\n",
			st.ROBegins, st.ROSafePromotions, st.ROSIReadSkips)
	}
}

func errLabel(err error) string {
	if err == nil {
		return "committed"
	}
	return err.Error()
}

func i64(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}
