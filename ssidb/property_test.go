package ssidb_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"ssi/internal/sercheck"
	"ssi/ssidb"
)

// TestQuickSequentialMatchesMap drives random committed single-operation
// transactions through every isolation level and granularity and compares
// the database against a plain map reference.
func TestQuickSequentialMatchesMap(t *testing.T) {
	type op struct {
		Kind byte // put, delete, or no-op variants
		Key  uint8
		Val  uint16
	}
	configs := []ssidb.Options{
		{},
		{Detector: ssidb.DetectorPrecise},
		{Granularity: ssidb.GranularityPage, PageMaxKeys: 4},
		{Detector: ssidb.DetectorPrecise, TableShards: 8},
	}
	isolations := []ssidb.Isolation{ssidb.SnapshotIsolation, ssidb.SerializableSI, ssidb.S2PL}
	check := func(ops []op, cfgIdx, isoIdx uint8) bool {
		opts := configs[int(cfgIdx)%len(configs)]
		iso := isolations[int(isoIdx)%len(isolations)]
		db := ssidb.Open(opts)
		ref := map[string]string{}
		for _, o := range ops {
			key := []byte(fmt.Sprintf("k%03d", o.Key%32))
			val := []byte(fmt.Sprintf("v%05d", o.Val))
			var err error
			switch o.Kind % 3 {
			case 0:
				err = db.Run(iso, func(tx *ssidb.Txn) error { return tx.Put("t", key, val) })
				if err == nil {
					ref[string(key)] = string(val)
				}
			case 1:
				err = db.Run(iso, func(tx *ssidb.Txn) error { return tx.Delete("t", key) })
				if err == nil {
					delete(ref, string(key))
				}
			default:
				var got []byte
				var found bool
				err = db.Run(iso, func(tx *ssidb.Txn) error {
					var gerr error
					got, found, gerr = tx.Get("t", key)
					return gerr
				})
				want, ok := ref[string(key)]
				if err == nil && (found != ok || (ok && string(got) != want)) {
					return false
				}
			}
			if err != nil {
				return false // sequential transactions must never abort
			}
		}
		// Full scan must equal the sorted reference.
		var keys []string
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var scanned []string
		err := db.Run(iso, func(tx *ssidb.Txn) error {
			scanned = scanned[:0]
			return tx.Scan("t", nil, nil, func(k, v []byte) bool {
				if string(v) != ref[string(k)] {
					return false
				}
				scanned = append(scanned, string(k))
				return true
			})
		})
		if err != nil || len(scanned) != len(keys) {
			return false
		}
		for i := range keys {
			if scanned[i] != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomConcurrentSerializability is the repository's strongest dynamic
// check: random multi-operation transactions over a small hot key space,
// executed concurrently, with the full history recorded; the resulting
// multiversion serialization graph must be acyclic for SerializableSI (both
// detectors) and for S2PL. The operations are Puts, Gets, scans, locked reads
// that write nothing, Deletes, and Inserts, which a live key refuses and a
// deleted one takes: a locked read and a refused Insert read their row. Keys
// range over 11 letters of which 6 are loaded, so the run also inserts keys
// the tree lacks: b and d inside the scanned range [a, e), where an insert
// splits a gap the scans lock and moves their locks onto the new key, and i,
// j and k at the tree's right edge; at page granularity (PageMaxKeys 4) those
// inserts split leaves under concurrent writers of the moved keys. The same
// workload under plain SI routinely produces cycles, which the final
// assertion documents.
func TestRandomConcurrentSerializability(t *testing.T) {
	runOnce := func(opts ssidb.Options, iso ssidb.Isolation, seed int64) (*sercheck.History, int) {
		hist := sercheck.NewHistory()
		opts.Recorder = hist
		db := ssidb.Open(opts)
		if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			// b and d, inside the scanned range, are left out, and so are
			// i, j and k, past the last key.
			for _, k := range []byte("acefgh") {
				if err := tx.Put("t", []byte{k}, []byte{0}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var committed int
		var mu sync.Mutex
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed + int64(g)))
				for i := 0; i < 40; i++ {
					err := db.Run(iso, func(tx *ssidb.Txn) error {
						for n := 0; n < 3; n++ {
							k := []byte{byte('a' + r.Intn(11))}
							switch r.Intn(7) {
							case 0:
								if err := tx.Put("t", k, []byte{byte(r.Intn(256))}); err != nil {
									return err
								}
							case 1:
								if err := tx.Scan("t", []byte("a"), []byte("e"), func(k, v []byte) bool {
									return true
								}); err != nil {
									return err
								}
							case 2:
								if _, _, err := tx.GetForUpdate("t", k); err != nil {
									return err
								}
							case 3:
								if err := tx.Insert("t", k, []byte{byte(r.Intn(256))}); err != nil && !errors.Is(err, ssidb.ErrKeyExists) {
									return err
								}
							case 4:
								if err := tx.Delete("t", k); err != nil {
									return err
								}
							default:
								if _, _, err := tx.Get("t", k); err != nil {
									return err
								}
							}
						}
						return nil
					})
					if err == nil {
						mu.Lock()
						committed++
						mu.Unlock()
					}
				}
			}(g)
		}
		wg.Wait()
		return hist, committed
	}

	for _, c := range []struct {
		name string
		opts ssidb.Options
		iso  ssidb.Isolation
	}{
		{"ssi-basic", ssidb.Options{Detector: ssidb.DetectorBasic}, ssidb.SerializableSI},
		{"ssi-precise", ssidb.Options{Detector: ssidb.DetectorPrecise}, ssidb.SerializableSI},
		{"ssi-page", ssidb.Options{Detector: ssidb.DetectorPrecise, Granularity: ssidb.GranularityPage, PageMaxKeys: 4}, ssidb.SerializableSI},
		{"ssi-page-basic", ssidb.Options{Detector: ssidb.DetectorBasic, Granularity: ssidb.GranularityPage, PageMaxKeys: 4}, ssidb.SerializableSI},
		{"s2pl", ssidb.Options{}, ssidb.S2PL},
		{"s2pl-page", ssidb.Options{Granularity: ssidb.GranularityPage, PageMaxKeys: 4}, ssidb.S2PL},
		// The partitioned row store must preserve serializability for every
		// level: the scans' all-partition latching and the structural
		// inserts' gap inheritance are what these cases exercise. A page
		// database ignores TableShards (its table is one tree), so it has no
		// sharded case here: TestPageGranularityIsOneTree checks that.
		{"ssi-basic-sharded-store", ssidb.Options{Detector: ssidb.DetectorBasic, TableShards: 8}, ssidb.SerializableSI},
		{"ssi-precise-sharded-store", ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: 8}, ssidb.SerializableSI},
		{"s2pl-sharded-store", ssidb.Options{TableShards: 8}, ssidb.S2PL},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				hist, committed := runOnce(c.opts, c.iso, seed*1000)
				if committed == 0 {
					t.Fatalf("seed %d: nothing committed", seed)
				}
				if ok, cyc := hist.Serializable(); !ok {
					t.Fatalf("seed %d: non-serializable execution, cycle %v\n%s",
						seed, cyc, hist.MVSG())
				}
			}
		})
	}

	// The same workload at plain SI produces cycles (write skew et al.) —
	// this is the baseline that makes the assertions above meaningful. Run
	// it on both store layouts so the partitioned path has its own baseline.
	anomalies := 0
	for _, opts := range []ssidb.Options{{}, {TableShards: 8}} {
		for seed := int64(1); seed <= 4; seed++ {
			hist, _ := runOnce(opts, ssidb.SnapshotIsolation, seed*1000)
			if ok, _ := hist.Serializable(); !ok {
				anomalies++
			}
		}
	}
	if anomalies == 0 {
		t.Log("note: SI produced no anomaly in 8 seeds (possible but unusual)")
	}
}

// TestMixedReadOnlySerializability is the property suite for the declared
// read-only path: random read-write transactions run concurrently with pure
// readers declared read-only, and the recorded multiversion serialization
// graph must stay acyclic at every detector, granularity and store layout.
// This is the dynamic check that dropping the readers' out-edge tracking and
// (on safe snapshots) their SIREAD locks never lets a dangerous structure
// through.
func TestMixedReadOnlySerializability(t *testing.T) {
	runOnce := func(opts ssidb.Options, readerIso ssidb.Isolation, declared bool, seed int64) (*sercheck.History, int) {
		hist := sercheck.NewHistory()
		opts.Recorder = hist
		db := ssidb.Open(opts)
		if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			for k := 0; k < 8; k++ {
				if err := tx.Put("t", []byte{byte('a' + k)}, []byte{0}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var committed int
		var mu sync.Mutex
		var wg sync.WaitGroup
		// 4 read-write workers at SerializableSI.
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed + int64(g)))
				for i := 0; i < 30; i++ {
					err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
						for n := 0; n < 3; n++ {
							k := []byte{byte('a' + r.Intn(11))}
							switch r.Intn(3) {
							case 0:
								if err := tx.Put("t", k, []byte{byte(r.Intn(256))}); err != nil {
									return err
								}
							default:
								if _, _, err := tx.Get("t", k); err != nil {
									return err
								}
							}
						}
						return nil
					})
					if err == nil {
						mu.Lock()
						committed++
						mu.Unlock()
					}
				}
			}(g)
		}
		// 2 pure readers at readerIso, declared RO when configured.
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed + 100 + int64(g)))
				for i := 0; i < 30; i++ {
					var tx *ssidb.Txn
					if declared {
						tx = db.BeginReadOnly(readerIso)
					} else {
						tx = db.Begin(readerIso)
					}
					err := func() error {
						for n := 0; n < 3; n++ {
							if r.Intn(3) == 0 {
								if err := tx.Scan("t", []byte("a"), []byte("e"), func(k, v []byte) bool {
									return true
								}); err != nil {
									return err
								}
								continue
							}
							if _, _, err := tx.Get("t", []byte{byte('a' + r.Intn(8))}); err != nil {
								return err
							}
						}
						return nil
					}()
					if err != nil {
						tx.Abort()
						continue
					}
					if err := tx.Commit(); err == nil {
						mu.Lock()
						committed++
						mu.Unlock()
					}
				}
			}(g)
		}
		wg.Wait()
		return hist, committed
	}

	for _, c := range []struct {
		name string
		opts ssidb.Options
	}{
		{"ssi-basic", ssidb.Options{Detector: ssidb.DetectorBasic}},
		{"ssi-precise", ssidb.Options{Detector: ssidb.DetectorPrecise}},
		{"ssi-page", ssidb.Options{Detector: ssidb.DetectorPrecise, Granularity: ssidb.GranularityPage, PageMaxKeys: 4}},
		{"ssi-basic-sharded-store", ssidb.Options{Detector: ssidb.DetectorBasic, TableShards: 8}},
		{"ssi-precise-sharded-store", ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: 8}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				hist, committed := runOnce(c.opts, ssidb.SerializableSI, true, seed*1000)
				if committed == 0 {
					t.Fatalf("seed %d: nothing committed", seed)
				}
				if ok, cyc := hist.Serializable(); !ok {
					t.Fatalf("seed %d: non-serializable execution with declared-RO readers, cycle %v\n%s",
						seed, cyc, hist.MVSG())
				}
			}
		})
	}

	// Baseline: with the reader UNDECLARED at plain SI (the thesis §3.8
	// mixed-level configuration) the canonical read-only anomaly schedule
	// commits all three transactions and the checker must flag the history —
	// that is what makes the acyclicity assertions above meaningful. Run it
	// deterministically on both store layouts.
	for _, tshards := range []int{1, 8} {
		hist := sercheck.NewHistory()
		db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: tshards, Recorder: hist})
		if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			for _, k := range []string{"x", "y", "z"} {
				if err := tx.Put("t", []byte(k), []byte{0}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		pivot := db.Begin(ssidb.SerializableSI)
		if _, _, err := pivot.Get("t", []byte("y")); err != nil {
			t.Fatal(err)
		}
		if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
			if err := tx.Put("t", []byte("y"), []byte{10}); err != nil {
				return err
			}
			return tx.Put("t", []byte("z"), []byte{10})
		}); err != nil {
			t.Fatal(err)
		}
		reader := db.Begin(ssidb.SnapshotIsolation) // undeclared, plain SI
		for _, k := range []string{"x", "z"} {
			if _, _, err := reader.Get("t", []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := reader.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := pivot.Put("t", []byte("x"), []byte{5}); err != nil {
			t.Fatalf("tshards=%d: pivot write failed (%v); the SI reader must not protect it", tshards, err)
		}
		if err := pivot.Commit(); err != nil {
			t.Fatalf("tshards=%d: pivot commit failed (%v); the SI reader must not protect it", tshards, err)
		}
		if ok, _ := hist.Serializable(); ok {
			t.Fatalf("tshards=%d: checker missed the read-only anomaly with an undeclared SI reader", tshards)
		}
	}
}

// TestScanLimitSemantics pins ScanLimit's contract: at most `limit` live
// keys, in order, starting at `from`.
func TestScanLimitSemantics(t *testing.T) {
	db := ssidb.Open(ssidb.Options{})
	for i := 0; i < 20; i++ {
		if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			return tx.Put("t", []byte(fmt.Sprintf("k%02d", i)), []byte{byte(i)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		return tx.Delete("t", []byte("k05"))
	})
	var got [][]byte
	err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		got = got[:0]
		return tx.ScanLimit("t", []byte("k03"), nil, 4, func(k, v []byte) bool {
			got = append(got, append([]byte(nil), k...))
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"k03", "k04", "k06", "k07"} // k05 deleted, limit 4 live keys
	if len(got) != len(want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	for i := range want {
		if !bytes.Equal(got[i], []byte(want[i])) {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
	// Limit larger than the range behaves like Scan.
	n := 0
	db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		n = 0
		return tx.ScanLimit("t", []byte("k18"), nil, 10, func(k, v []byte) bool {
			n++
			return true
		})
	})
	if n != 2 {
		t.Fatalf("tail scan visited %d", n)
	}
}

// TestScanLimitMinQueryConflict checks the Delivery-style property: a
// limit-1 "minimum in range" scan still conflicts with a concurrent insert
// *below* the found minimum, but not with inserts beyond the stop point.
func TestScanLimitMinQueryConflict(t *testing.T) {
	newDB := func() *ssidb.DB {
		db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise})
		for _, k := range []string{"k10", "k20"} {
			if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
				return tx.Put("t", []byte(k), []byte("x"))
			}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}

	// Case 1: insert below the found minimum — the two transactions form
	// rw edges in both directions (the scanner also writes what the
	// inserter scans), so one must abort.
	db := newDB()
	t1 := db.Begin(ssidb.SerializableSI)
	t2 := db.Begin(ssidb.SerializableSI)
	scanMin := func(tx *ssidb.Txn) error {
		return tx.ScanLimit("t", []byte("k00"), nil, 1, func(k, v []byte) bool { return false })
	}
	if err := scanMin(t1); err != nil {
		t.Fatal(err)
	}
	if err := scanMin(t2); err != nil {
		t.Fatal(err)
	}
	e1 := t1.Insert("t", []byte("k05"), []byte("y")) // below t2's observed min
	e2 := t2.Insert("t", []byte("k03"), []byte("y")) // below t1's observed min
	if e1 == nil {
		e1 = t1.Commit()
	}
	if e2 == nil {
		e2 = t2.Commit()
	}
	aborted := 0
	for _, e := range []error{e1, e2} {
		if ssidb.Retryable(e) {
			aborted++
		} else if e != nil {
			t.Fatal(e)
		}
	}
	if aborted == 0 {
		t.Fatal("mutual min-range inserts both committed — phantom missed")
	}

	// Case 2: inserts beyond the stop point don't conflict with the scan.
	db = newDB()
	t3 := db.Begin(ssidb.SerializableSI)
	if err := scanMin(t3); err != nil {
		t.Fatal(err)
	}
	if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		return tx.Insert("t", []byte("k15"), []byte("z")) // past t3's stop point
	}); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatalf("scan limited to the prefix should not conflict: %v", err)
	}
}
