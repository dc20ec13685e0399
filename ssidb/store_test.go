package ssidb_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"ssi/ssidb"
)

// TestTableShardsOption pins the Options.TableShards plumbing: power-of-two
// rounding, a sane default, and the single-partition oracle configuration.
func TestTableShardsOption(t *testing.T) {
	if got := ssidb.Open(ssidb.Options{TableShards: 5}).TableShards(); got != 8 {
		t.Fatalf("TableShards(5) rounded to %d, want 8", got)
	}
	if got := ssidb.Open(ssidb.Options{TableShards: 1}).TableShards(); got != 1 {
		t.Fatalf("TableShards(1) = %d", got)
	}
	if got := ssidb.Open(ssidb.Options{}).TableShards(); got < 1 {
		t.Fatalf("default TableShards = %d", got)
	}
	db := ssidb.Open(ssidb.Options{TableShards: 8})
	if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		return tx.Put("t", []byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	if st := db.TableStats("t"); st.Shards != 8 || st.Keys != 1 {
		t.Fatalf("TableStats = %+v, want 8 shards / 1 key", st)
	}
}

// TestPageGranularityIsOneTree: a page-granularity table is one B+tree, as in
// Berkeley DB, whatever TableShards says — so a page number names one page of
// the table — while row granularity keeps the partitions it was given.
func TestPageGranularityIsOneTree(t *testing.T) {
	for _, c := range []struct {
		name string
		gran ssidb.Granularity
		want int
	}{{"page", ssidb.GranularityPage, 1}, {"row", ssidb.GranularityRow, 8}} {
		db := ssidb.Open(ssidb.Options{Granularity: c.gran, TableShards: 8})
		if got := db.TableShards(); got != c.want {
			t.Errorf("%s: TableShards() = %d, want %d", c.name, got, c.want)
		}
		if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
			return tx.Put("t", []byte("k"), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
		if st := db.TableStats("t"); st.Shards != c.want {
			t.Errorf("%s: TableStats.Shards = %d, want %d", c.name, st.Shards, c.want)
		}
	}
}

// TestCrossPartitionScanMatchesOracle is the acceptance property for the
// partitioned store: the same random operation sequence applied to an
// 8-partition database and to a 1-partition oracle must yield byte-identical
// Scan and ScanLimit results — same keys, same values, same order, same
// limit/boundary behaviour — at every isolation level.
func TestCrossPartitionScanMatchesOracle(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint8
		Val  uint16
	}
	isolations := []ssidb.Isolation{ssidb.SnapshotIsolation, ssidb.SerializableSI, ssidb.S2PL}
	check := func(ops []op, isoIdx, fromK, toK uint8, limit uint8) bool {
		iso := isolations[int(isoIdx)%len(isolations)]
		sharded := ssidb.Open(ssidb.Options{TableShards: 8, PageMaxKeys: 4, Detector: ssidb.DetectorPrecise})
		oracle := ssidb.Open(ssidb.Options{TableShards: 1, PageMaxKeys: 4, Detector: ssidb.DetectorPrecise})
		for _, o := range ops {
			key := []byte(fmt.Sprintf("k%03d", o.Key%48))
			val := []byte(fmt.Sprintf("v%05d", o.Val))
			for _, db := range []*ssidb.DB{sharded, oracle} {
				var err error
				if o.Kind%4 == 0 {
					err = db.Run(iso, func(tx *ssidb.Txn) error { return tx.Delete("t", key) })
				} else {
					err = db.Run(iso, func(tx *ssidb.Txn) error { return tx.Put("t", key, val) })
				}
				if err != nil {
					return false // sequential transactions must never abort
				}
			}
		}
		// Interleave a vacuum on one side only: reclamation must be
		// invisible to scan results.
		sharded.Vacuum()

		from := []byte(fmt.Sprintf("k%03d", fromK%48))
		to := []byte(fmt.Sprintf("k%03d", toK%48))
		if bytes.Compare(from, to) > 0 {
			from, to = to, from
		}
		collect := func(db *ssidb.DB, limited bool) (out []string, err error) {
			err = db.Run(iso, func(tx *ssidb.Txn) error {
				out = out[:0]
				fn := func(k, v []byte) bool {
					out = append(out, string(k)+"="+string(v))
					return true
				}
				if limited {
					return tx.ScanLimit("t", from, to, int(limit%8)+1, fn)
				}
				return tx.Scan("t", from, to, fn)
			})
			return out, err
		}
		for _, limited := range []bool{false, true} {
			got, err1 := collect(sharded, limited)
			want, err2 := collect(oracle, limited)
			if err1 != nil || err2 != nil {
				return false
			}
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedStoreStress hammers an 8-partition table through the full
// engine: concurrent SSI/SI scans, splitting inserts (tiny pages), upserts,
// deletes, the retiring writers' pruning and an aggressive Vacuum loop. Under
// -race this checks the latch discipline end to end; afterwards the census
// must drain and a full scan must still be ordered and consistent.
func TestPartitionedStoreStress(t *testing.T) {
	db := ssidb.Open(ssidb.Options{
		TableShards: 8,
		PageMaxKeys: 4, // force frequent page splits
		Detector:    ssidb.DetectorPrecise,
	})
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 99))
			isos := []ssidb.Isolation{ssidb.SnapshotIsolation, ssidb.SerializableSI, ssidb.S2PL}
			for i := 0; i < 250; i++ {
				iso := isos[r.Intn(len(isos))]
				db.Run(iso, func(tx *ssidb.Txn) error {
					for n := 0; n < 3; n++ {
						k := key(r.Intn(128))
						switch r.Intn(5) {
						case 0:
							if err := tx.Put("t", k, []byte{byte(i)}); err != nil {
								return err
							}
						case 1:
							if err := tx.Delete("t", k); err != nil {
								return err
							}
						case 2:
							if err := tx.Scan("t", key(r.Intn(64)), key(64+r.Intn(64)), func(k, v []byte) bool { return true }); err != nil {
								return err
							}
						case 3:
							if err := tx.ScanLimit("t", k, nil, 1+r.Intn(4), func(k, v []byte) bool { return true }); err != nil {
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
			}
		}(g)
	}
	stop := make(chan struct{})
	var vwg sync.WaitGroup
	vwg.Add(1)
	go func() {
		defer vwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				db.Vacuum()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	vwg.Wait()

	st := db.StatsSnapshot()
	if st.ActiveTxns != 0 || st.SuspendedTxns != 0 || st.LockedKeys != 0 || st.LockOwners != 0 {
		t.Fatalf("bookkeeping did not drain after stress: %+v", st)
	}
	var prev []byte
	if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		prev = prev[:0]
		return tx.Scan("t", nil, nil, func(k, v []byte) bool {
			if len(prev) > 0 && bytes.Compare(prev, k) >= 0 {
				t.Errorf("scan out of order after stress: %q then %q", prev, k)
				return false
			}
			prev = append(prev[:0], k...)
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
}

// TestVacuumReclaimsVersionsAndStamps drives a hot-key update stream with an
// old snapshot pinning the watermark, then releases it: a Vacuum under the
// pin must reclaim nothing the snapshot could read, the pin's end must cut
// the chain (the writers it held back retire), and in page mode Vacuum must
// shrink the write-stamp histories too.
func TestVacuumReclaimsVersionsAndStamps(t *testing.T) {
	db := ssidb.Open(ssidb.Options{
		Granularity: ssidb.GranularityPage,
		PageMaxKeys: 8,
		Detector:    ssidb.DetectorBasic,
	})
	put := func(i int) {
		if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			return tx.Put("t", []byte("hot"), []byte(fmt.Sprintf("v%d", i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	put(0)

	pin := db.Begin(ssidb.SnapshotIsolation)
	if _, _, err := pin.Get("t", []byte("hot")); err != nil { // materialise the snapshot
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		put(i)
	}
	// The pinned reader still sees v0 across a vacuum.
	db.Vacuum()
	if v, ok, err := pin.Get("t", []byte("hot")); err != nil || !ok || string(v) != "v0" {
		t.Fatalf("pinned reader after vacuum: %q %v %v, want v0", v, ok, err)
	}
	if ts := db.TableStats("t"); ts.VersionsPruned != 0 {
		t.Fatalf("%d versions pruned under the pin", ts.VersionsPruned)
	}
	if err := pin.Commit(); err != nil {
		t.Fatal(err)
	}
	if ts := db.TableStats("t"); ts.VersionsPruned != 50 {
		t.Fatalf("the pin's end pruned %d versions, want all 50 the writers superseded", ts.VersionsPruned)
	}

	st := db.Vacuum()
	if st.VersionsPruned != 0 {
		t.Fatalf("unpinned vacuum found %d versions the writers' retirement left", st.VersionsPruned)
	}
	if st.StampWritersPruned == 0 {
		t.Fatal("unpinned vacuum expired no page write-stamps")
	}
	if ts := db.TableStats("t"); ts.VacuumRuns != 2 {
		t.Fatalf("table census counts %d vacuum runs, want 2: %+v", ts.VacuumRuns, ts)
	}
	// Correctness after reclamation.
	if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		v, ok, err := tx.Get("t", []byte("hot"))
		if err != nil || !ok || string(v) != "v50" {
			t.Fatalf("after vacuum read %q %v %v, want v50", v, ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestQuiesceLeavesNoGarbage: four writers overwrite 64 hot keys while a
// fifth goroutine keeps opening, holding and committing a snapshot that pins
// them. Once all of them stop — with no Vacuum call — every version a commit
// superseded has been pruned by that commit's own retirement, so every chain
// holds exactly one version, and no suspended record or lock is left. Run at
// row and page granularity; under -race it also checks the retirement path's
// synchronisation.
func TestQuiesceLeavesNoGarbage(t *testing.T) {
	const keys, writers, perWriter = 64, 4, 300
	key := func(i int) []byte { return []byte(fmt.Sprintf("h%02d", i)) }
	for name, gran := range map[string]ssidb.Granularity{"row": ssidb.GranularityRow, "page": ssidb.GranularityPage} {
		t.Run(name, func(t *testing.T) {
			db := ssidb.Open(ssidb.Options{Granularity: gran, PageMaxKeys: 8})
			if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
				for i := 0; i < keys; i++ {
					if err := tx.Put("t", key(i), []byte("v")); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var stop atomic.Bool
			var overwrites atomic.Uint64
			var wg, pg sync.WaitGroup
			pg.Add(1)
			go func() {
				defer pg.Done()
				for i := 0; !stop.Load(); i++ {
					pin := db.Begin(ssidb.SerializableSI)
					if _, _, err := pin.Get("t", key(i%keys)); err != nil {
						if !ssidb.Retryable(err) { // the reader of a committed pivot's write
							t.Error(err)
							return
						}
						continue
					}
					time.Sleep(200 * time.Microsecond)
					if err := pin.Commit(); err != nil && !ssidb.Retryable(err) {
						t.Error(err)
						return
					}
				}
			}()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w) + 1))
					for i := 0; i < perWriter; i++ {
						if err := db.RunRetry(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
							if _, _, err := tx.Get("t", key(r.Intn(keys))); err != nil {
								return err
							}
							return tx.Put("t", key(r.Intn(keys)), []byte{byte(i)})
						}); err != nil {
							t.Error(err)
							return
						}
						overwrites.Add(1)
					}
				}(w)
			}
			wg.Wait()
			stop.Store(true)
			pg.Wait()

			if st := db.StatsSnapshot(); st.ActiveTxns != 0 || st.SuspendedTxns != 0 || st.LockedKeys != 0 {
				t.Fatalf("not quiescent after the last end: %d active, %d suspended, %d locked keys", st.ActiveTxns, st.SuspendedTxns, st.LockedKeys)
			}
			// Every overwrite superseded exactly one version, and each was pruned
			// when its writer retired; so each chain is down to its newest
			// version, which a Vacuum against the drained horizon confirms.
			if got, want := db.TableStats("t").VersionsPruned, overwrites.Load(); got != want {
				t.Errorf("retirements pruned %d versions, want the %d the overwrites superseded", got, want)
			}
			if n := db.Vacuum().VersionsPruned; n != 0 {
				t.Errorf("a chain held more than one version at quiescence: Vacuum pruned %d", n)
			}
		})
	}
}

// TestKeyBufferReuse pins the ownership contract of the write calls: the key
// is copied by the store (once, when the row is first created), so a caller
// may build every key of a load in one buffer. Put, Insert and the Delete of
// an absent key each create a row — the three ways a key can enter a table —
// at row and page granularity, in one transaction and one per key; afterwards
// point reads and an ordered scan must find every key, not just whichever one
// the buffer held last.
func TestKeyBufferReuse(t *testing.T) {
	const n = 10
	key := func(buf []byte, table, i int) []byte {
		binary.BigEndian.PutUint32(buf, uint32(table*1000+i))
		return buf
	}
	writes := []struct {
		name string
		do   func(tx *ssidb.Txn, k []byte) error
		live bool // the key is visible afterwards
	}{
		{"Put", func(tx *ssidb.Txn, k []byte) error { return tx.Put("t", k, []byte("v")) }, true},
		{"Insert", func(tx *ssidb.Txn, k []byte) error { return tx.Insert("t", k, []byte("v")) }, true},
		{"Delete", func(tx *ssidb.Txn, k []byte) error { return tx.Delete("t", k) }, false},
	}
	for _, gran := range []ssidb.Granularity{ssidb.GranularityRow, ssidb.GranularityPage} {
		for _, perKey := range []bool{false, true} {
			t.Run(fmt.Sprintf("gran=%d/txnPerKey=%v", gran, perKey), func(t *testing.T) {
				db := ssidb.Open(ssidb.Options{Granularity: gran, PageMaxKeys: 4})
				buf := make([]byte, 4)
				for wi, w := range writes {
					if perKey {
						for i := 0; i < n; i++ {
							if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error { return w.do(tx, key(buf, wi, i)) }); err != nil {
								t.Fatalf("%s: %v", w.name, err)
							}
						}
						continue
					}
					if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
						for i := 0; i < n; i++ {
							if err := w.do(tx, key(buf, wi, i)); err != nil {
								return err
							}
						}
						return nil
					}); err != nil {
						t.Fatalf("%s: %v", w.name, err)
					}
				}
				if st := db.TableStats("t"); st.Keys != len(writes)*n {
					t.Errorf("the table holds %d keys, want %d", st.Keys, len(writes)*n)
				}
				if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
					var scanned []uint32
					if err := tx.Scan("t", nil, nil, func(k, v []byte) bool {
						scanned = append(scanned, binary.BigEndian.Uint32(k))
						return true
					}); err != nil {
						return err
					}
					var want []uint32
					for wi, w := range writes {
						for i := 0; i < n; i++ {
							_, found, err := tx.Get("t", key(make([]byte, 4), wi, i))
							if err != nil {
								return err
							}
							if found != w.live {
								t.Errorf("%s key %d: found=%v, want %v", w.name, i, found, w.live)
							}
							if w.live {
								want = append(want, uint32(wi*1000+i))
							}
						}
					}
					if !slices.Equal(scanned, want) {
						t.Errorf("scan saw %v, want %v", scanned, want)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestGetValueAppendIsPrivate pins the ownership contract of the read calls: a
// value that Get returns, or that a Scan callback is shown, aliases the stored
// version and has capacity equal to its length, so appending to it copies.
// Here the stored value is the first 8 bytes of a 64-byte buffer; if a reader
// were handed the writer's spare capacity, two readers' appends would both
// write the buffer's ninth byte — the first reader's result would change under
// it, and so would the writer's buffer.
func TestGetValueAppendIsPrivate(t *testing.T) {
	db := ssidb.Open(ssidb.Options{})
	buf := make([]byte, 64)
	copy(buf, "balance!")
	if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error { return tx.Put("t", []byte("k"), buf[:8]) }); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name       string
		readAppend func(tx *ssidb.Txn, extra byte) ([]byte, error)
	}{
		{"Get", func(tx *ssidb.Txn, extra byte) ([]byte, error) {
			v, _, err := tx.Get("t", []byte("k"))
			return append(v, extra), err
		}},
		{"Scan", func(tx *ssidb.Txn, extra byte) (got []byte, err error) {
			err = tx.Scan("t", nil, nil, func(_, v []byte) bool {
				got = append(v, extra)
				return false
			})
			return got, err
		}},
	} {
		t.Run(r.name, func(t *testing.T) {
			var a, b []byte
			if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) (err error) {
				a, err = r.readAppend(tx, 'a')
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) (err error) {
				b, err = r.readAppend(tx, 'b')
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if string(a) != "balance!a" || string(b) != "balance!b" {
				t.Errorf("two readers appended to the value and hold %q and %q, want %q and %q", a, b, "balance!a", "balance!b")
			}
			if buf[8] != 0 {
				t.Errorf("a reader's append wrote into the writer's buffer: %q", buf[:9])
			}
		})
	}
}
