package ssidb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestPooledTxnScratchPinsNothing is the no-pinning half of the recycled
// transaction scratch's contract: once a transaction is done — committed and
// retired, or aborted beside an uncommitted rival — the scratch it handed back
// holds only zero values over the whole capacity of its write set and rival
// buffer and no commit payload, so an idle pool keeps no transaction record,
// table or redo record reachable. The database is durable so the redo path
// runs, and a concurrent SIREAD holder on a written key makes sure the rival
// buffer is used; a committed writer's scratch comes back when that reader's
// end retires it.
func TestPooledTxnScratchPinsNothing(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	for name, gran := range map[string]Granularity{"row": GranularityRow, "page": GranularityPage} {
		for _, commit := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/commit=%v", name, commit), func(t *testing.T) {
				db, err := OpenDir(t.TempDir(), Options{Granularity: gran, PageMaxKeys: 8, Detector: DetectorPrecise})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
					for i := 0; i < 40; i++ {
						if err := tx.Put("t", key(i), []byte("v")); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				// A pool may miss (and drops puts at random under the race
				// detector), so repeat until a used scratch comes back.
				for attempt := 0; attempt < 100; attempt++ {
					reader := db.Begin(SerializableSI)
					// On the last key written, so the buffer is still full at the end.
					if _, _, err := reader.Get("t", key(14)); err != nil {
						t.Fatal(err)
					}
					tx := db.Begin(SerializableSI)
					for i := 5; i < 15; i++ {
						if err := tx.Put("t", key(i), []byte("w")); err != nil {
							t.Fatal(err)
						}
					}
					if len(tx.writes) != 10 || len(tx.commit.redo) == 0 {
						t.Fatalf("running transaction has %d write records and %d redo bytes, want 10 and some", len(tx.writes), len(tx.commit.redo))
					}
					used := tx.txnScratch
					if commit {
						err = tx.Commit()
					} else {
						err = tx.Abort()
					}
					if err != nil {
						t.Fatal(err)
					}
					if !tx.done || tx.txnScratch != nil {
						t.Fatalf("finished handle: done=%v, scratch %p", tx.done, tx.txnScratch)
					}
					reader.Abort()
					// The reader's own scratch went back beside it; look for tx's.
					var s *txnScratch
					for i := 0; i < 4 && s != used; i++ {
						s = txnScratchPool.Get().(*txnScratch)
					}
					if s != used {
						continue
					}
					if cap(s.rivals) == 0 || cap(s.commit.redo) == 0 {
						t.Errorf("a logged write beside a SIREAD holder left buffers unused: rivals %d, redo %d",
							cap(s.rivals), cap(s.commit.redo))
					}
					if len(s.writes)+len(s.rivals)+len(s.commit.redo) != 0 || s.commit.lsn != 0 || s.commit.err != nil {
						t.Errorf("pooled scratch is not reset: %d writes, %d rivals, commit state %+v",
							len(s.writes), len(s.rivals), s.commit)
					}
					if s.db != nil || s.prog != nil || s.progSIToken {
						t.Errorf("pooled scratch still names database %p, program %p, SI token %v", s.db, s.prog, s.progSIToken)
					}
					if i := firstNonZero(s.writes); i >= 0 {
						t.Errorf("pooled write set still holds %+v at %d of %d", s.writes[:cap(s.writes)][i], i, cap(s.writes))
					}
					if i := firstNonZero(s.rivals); i >= 0 {
						t.Errorf("pooled rival buffer still holds a transaction at %d of %d", i, cap(s.rivals))
					}
					return
				}
				t.Fatal("no used scratch came back from the pool in 100 transactions")
			})
		}
	}
}

// TestHandleUseAfterDone pins the other half: the handle is the caller's, so
// one kept past the end of its transaction — past RunRetry's return, or past
// an ErrUnsafe that aborted it in mid-body — keeps answering ErrTxnDone (nil
// for Abort) and never reaches the scratch, which by then serves another
// transaction; a neighbour goroutine keeps the pool busy so the race detector
// would see a stale handle touching it.
func TestHandleUseAfterDone(t *testing.T) {
	for name, det := range map[string]Detector{"basic": DetectorBasic, "precise": DetectorPrecise} {
		t.Run(name, func(t *testing.T) {
			db := Open(Options{Detector: det})
			for _, k := range []string{"x", "y", "n"} {
				seed(t, db, "t", k, 1)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int64(0); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := db.RunRetry(SerializableSI, func(tx *Txn) error {
						if _, _, err := tx.Get("t", []byte("n")); err != nil {
							return err
						}
						return tx.Put("t", []byte("n"), i64(i))
					}); err != nil {
						t.Errorf("neighbour transaction: %v", err)
						return
					}
				}
			}()
			defer func() { close(stop); wg.Wait() }()

			checkDone := func(what string, tx *Txn) {
				t.Helper()
				if _, _, err := tx.Get("t", []byte("x")); !errors.Is(err, ErrTxnDone) {
					t.Errorf("%s: Get = %v, want ErrTxnDone", what, err)
				}
				if err := tx.Put("t", []byte("x"), i64(9)); !errors.Is(err, ErrTxnDone) {
					t.Errorf("%s: Put = %v, want ErrTxnDone", what, err)
				}
				if err := tx.Scan("t", nil, nil, func(k, v []byte) bool { return true }); !errors.Is(err, ErrTxnDone) {
					t.Errorf("%s: Scan = %v, want ErrTxnDone", what, err)
				}
				if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
					t.Errorf("%s: Commit = %v, want ErrTxnDone", what, err)
				}
				if err := tx.Abort(); err != nil {
					t.Errorf("%s: Abort = %v, want nil", what, err)
				}
			}

			for round := 0; round < 50; round++ {
				var kept *Txn
				if err := db.RunRetry(SerializableSI, func(tx *Txn) error {
					kept = tx
					return tx.Put("t", []byte("x"), i64(int64(round)))
				}); err != nil {
					t.Fatal(err)
				}
				checkDone("committed by RunRetry", kept)

				// A pivot: its read of x is overwritten by a transaction that
				// commits first, and its own write of y lands on a concurrent
				// reader's SIREAD — the write (basic detector) or the next
				// operation's abort-early probe (precise) comes back unsafe
				// in mid-body.
				err := db.Run(SerializableSI, func(tx *Txn) error {
					kept = tx
					if _, _, err := tx.Get("t", []byte("x")); err != nil {
						return err
					}
					in := db.Begin(SerializableSI)
					defer in.Abort()
					if _, _, err := in.Get("t", []byte("y")); err != nil {
						return err
					}
					if err := db.Run(SerializableSI, func(out *Txn) error {
						return out.Put("t", []byte("x"), i64(7))
					}); err != nil {
						return err
					}
					err := tx.Put("t", []byte("y"), i64(8))
					if err == nil {
						_, _, err = tx.Get("t", []byte("y"))
					}
					if errors.Is(err, ErrUnsafe) {
						checkDone("aborted by ErrUnsafe, still in its body", tx)
					}
					return err
				})
				if !errors.Is(err, ErrUnsafe) {
					t.Fatalf("pivot = %v, want ErrUnsafe", err)
				}
				checkDone("aborted by ErrUnsafe", kept)
			}
		})
	}
}
