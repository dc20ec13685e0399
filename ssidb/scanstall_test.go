package ssidb_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssi/internal/mvcc"
	"ssi/internal/sercheck"
	"ssi/ssidb"
)

// scanStallKeys sizes the writer-stall stress table. The full run scans
// ≥100k keys (the acceptance scale for the lock-coupled scan); -short keeps
// CI-adjacent local runs quick.
func scanStallKeys(t *testing.T) int {
	if testing.Short() {
		return 20000
	}
	return 100000
}

// TestScanStallWriterLatency is the writer-stall regression test at the
// engine level: full-table scans over a partitioned 100k-key table run
// concurrently with point writers on uniformly random keys (all partitions),
// at SI and at SerializableSI. Writers must make progress *while a scan is
// in flight* — with the old hold-every-latch-for-the-whole-scan protocol, no
// write could start and commit inside a scan window — and a write waits for
// one round of the scan, not for the scan: each scan takes and releases the
// partition latches once per mvcc.ScanChunk keys (TableStats.ScanRounds).
// Both are counts; a wall-clock bound on the in-scan writes' latency read a
// descheduled writer goroutine as a stalled one.
func TestScanStallWriterLatency(t *testing.T) {
	for _, iso := range []ssidb.Isolation{ssidb.SnapshotIsolation, ssidb.SerializableSI} {
		t.Run(iso.String(), func(t *testing.T) {
			keys := scanStallKeys(t)
			db := ssidb.Open(ssidb.Options{TableShards: 8, Detector: ssidb.DetectorPrecise})
			key := func(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }
			const batch = 2000
			for lo := 0; lo < keys; lo += batch {
				if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
					for i := lo; i < lo+batch && i < keys; i++ {
						if err := tx.Put("t", key(i), []byte("v")); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}

			// epoch is odd exactly while a scan is collecting; a writer op
			// that starts and ends in the same odd epoch ran entirely inside
			// one scan.
			var epoch atomic.Int64
			var stop atomic.Bool
			var scanDurs []time.Duration
			scanErr := make(chan error, 1)
			go func() {
				defer stop.Store(true)
				for s := 0; s < 2; s++ {
					start := time.Now()
					n := 0
					epoch.Add(1)
					err := db.Run(iso, func(tx *ssidb.Txn) error {
						return tx.Scan("t", nil, nil, func(k, v []byte) bool {
							n++
							return true
						})
					})
					epoch.Add(1)
					scanDurs = append(scanDurs, time.Since(start))
					if err != nil {
						scanErr <- err
						return
					}
					if n != keys {
						scanErr <- fmt.Errorf("scan %d visited %d of %d live keys", s, n, keys)
						return
					}
				}
				scanErr <- nil
			}()

			roundsBefore := db.TableStats("t").ScanRounds
			var wg sync.WaitGroup
			var during, commits atomic.Int64
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(g)*997 + 1))
					for !stop.Load() {
						e1 := epoch.Load()
						err := db.Run(iso, func(tx *ssidb.Txn) error {
							return tx.Put("t", key(r.Intn(keys)), []byte("w"))
						})
						if err != nil {
							if !ssidb.Retryable(err) {
								t.Error(err)
								return
							}
							continue
						}
						commits.Add(1)
						if e2 := epoch.Load(); e1 == e2 && e1%2 == 1 {
							during.Add(1)
						}
					}
				}(g)
			}
			if err := <-scanErr; err != nil {
				t.Fatal(err)
			}
			wg.Wait()

			rounds := db.TableStats("t").ScanRounds - roundsBefore
			t.Logf("scans %v in %d rounds; %d commits, %d entirely inside a scan",
				scanDurs, rounds, commits.Load(), during.Load())
			if commits.Load() == 0 {
				t.Fatal("writers committed nothing")
			}
			if during.Load() < 20 {
				t.Fatalf("only %d writes started and committed inside a scan window — writers stall for the scan's duration", during.Load())
			}
			// A writer's latch wait is bounded by a lock-coupled round, not
			// by the scan: each of the two scans released the latches at
			// least once per ScanChunk keys it visited.
			if want := uint64(2 * keys / mvcc.ScanChunk); rounds < want {
				t.Fatalf("two scans of %d keys took the latches %d times, want ≥ %d — writers wait for the scan, not a round", keys, rounds, want)
			}
		})
	}
}

// TestLongScanSerializability re-runs the sercheck property over scans that
// span multiple lock-coupled rounds: a 600-key table (> 2× the round chunk)
// with concurrent full-table scans, in-range structural inserts, updates,
// deletes and point reads — every retiring writer pruning its rows between
// the rounds — with the recorded MVSG required acyclic — at
// SerializableSI on both the partitioned and single-partition stores (both
// detectors' default paths), in page granularity (one tree), and at S2PL.
// This is the
// §3.5 phantom argument exercised exactly where the handoff protocol has to
// hold it: inserts landing behind and ahead of a scan frontier whose latches
// have been dropped and re-taken.
func TestLongScanSerializability(t *testing.T) {
	const span = 600
	for _, c := range []struct {
		name string
		opts ssidb.Options
		iso  ssidb.Isolation
	}{
		{"ssi-sharded", ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: 8}, ssidb.SerializableSI},
		{"ssi-single", ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: 1}, ssidb.SerializableSI},
		{"ssi-basic-sharded", ssidb.Options{Detector: ssidb.DetectorBasic, TableShards: 8}, ssidb.SerializableSI},
		{"ssi-page", ssidb.Options{Detector: ssidb.DetectorPrecise, Granularity: ssidb.GranularityPage, PageMaxKeys: 8}, ssidb.SerializableSI},
		{"s2pl-sharded", ssidb.Options{TableShards: 8}, ssidb.S2PL},
		{"s2pl-page", ssidb.Options{Granularity: ssidb.GranularityPage, PageMaxKeys: 8}, ssidb.S2PL},
	} {
		t.Run(c.name, func(t *testing.T) {
			hist := sercheck.NewHistory()
			opts := c.opts
			opts.Recorder = hist
			db := ssidb.Open(opts)
			if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
				for k := 0; k < span; k++ {
					if err := tx.Put("t", []byte(fmt.Sprintf("k%04d", k)), []byte{0}); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var committed atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(g)*31 + 5))
					for i := 0; i < 25; i++ {
						err := db.Run(c.iso, func(tx *ssidb.Txn) error {
							switch r.Intn(10) {
							case 0, 1, 2: // multi-round full scan
								return tx.Scan("t", nil, nil, func(k, v []byte) bool { return true })
							case 3, 4, 5: // structural insert inside the scanned range
								return tx.Insert("t", []byte(fmt.Sprintf("k%04d-%d-%d", r.Intn(span), g, i)), []byte{1})
							case 6, 7: // update
								return tx.Put("t", []byte(fmt.Sprintf("k%04d", r.Intn(span))), []byte{byte(i)})
							case 8: // tombstone
								return tx.Delete("t", []byte(fmt.Sprintf("k%04d", r.Intn(span))))
							default:
								_, _, err := tx.Get("t", []byte(fmt.Sprintf("k%04d", r.Intn(span))))
								return err
							}
						})
						if err == nil {
							committed.Add(1)
						} else if !ssidb.Retryable(err) {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if committed.Load() == 0 {
				t.Fatal("nothing committed")
			}
			if ok, cyc := hist.Serializable(); !ok {
				t.Fatalf("non-serializable execution over multi-round scans, cycle %v\n%s", cyc, hist.MVSG())
			}
		})
	}
}
