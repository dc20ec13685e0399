package programs_test

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ssi/internal/workload/smallbank"
	"ssi/programs"
	"ssi/ssidb"
)

// TestPublicKnobs pins the layer's configuration surface: the exact fields of
// ProgramOptions. A change that adds a knob edits this list and names, in the
// same change, the knob it retires.
func TestPublicKnobs(t *testing.T) {
	var got []string
	typ := reflect.TypeFor[programs.ProgramOptions]()
	for i := range typ.NumField() {
		got = append(got, typ.Field(i).Name)
	}
	if want := []string{"ClassTables", "AutoRemedy"}; !slices.Equal(got, want) {
		t.Errorf("ProgramOptions has fields %v, want %v", got, want)
	}
}

// recorder keeps the keys written since it was last taken, in order.
type recorder struct {
	mu     sync.Mutex
	writes []string
}

func (r *recorder) RecWrite(_ uint64, table, key string, _ bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writes = append(r.writes, table+"/"+key)
}

func (r *recorder) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.writes
	r.writes = nil
	return w
}

func (*recorder) RecBegin(uint64, string)                        {}
func (*recorder) RecRead(uint64, string, string, uint64, uint64) {}
func (*recorder) RecScan(uint64, string, string, string, uint64) {}
func (*recorder) RecCommit(uint64, uint64)                       {}
func (*recorder) RecAbort(uint64)                                {}

// smallBank loads 8 SmallBank customers and registers the programs on a layer
// over the database: remedied (robust, every program at SI, Balance promoting
// the checking table) or not (every program at SerializableSI, Balance
// declared read-only).
func smallBank(t *testing.T, remedied bool, rec ssidb.Recorder) *programs.DB {
	t.Helper()
	db := ssidb.Open(ssidb.Options{Recorder: rec})
	if err := smallbank.Load(db, smallbank.Config{Accounts: 8, InitialBalance: 100}); err != nil {
		t.Fatal(err)
	}
	pdb := programs.New(db)
	if _, err := smallbank.Register(pdb, remedied); err != nil {
		t.Fatal(err)
	}
	return pdb
}

var id0 = []byte{0, 0, 0, 0} // customer 0's id key

func begin(t *testing.T, pdb *programs.DB, name string, iso ssidb.Isolation) *programs.Txn {
	t.Helper()
	tx, err := pdb.BeginProgram(name)
	if err != nil {
		t.Fatal(err)
	}
	if tx.Isolation() != iso {
		t.Fatalf("%s began at %v, want %v", name, tx.Isolation(), iso)
	}
	return tx
}

// statement runs one statement method of tx on table.
func statement(tx *programs.Txn, op, table string) error {
	nop := func(k, v []byte) bool { return true }
	var err error
	switch op {
	case "Get":
		_, _, err = tx.Get(table, id0)
	case "GetForUpdate":
		_, _, err = tx.GetForUpdate(table, id0)
	case "Put":
		err = tx.Put(table, id0, []byte("v"))
	case "Insert":
		err = tx.Insert(table, []byte("new"), []byte("v"))
	case "Delete":
		err = tx.Delete(table, id0)
	case "Scan":
		err = tx.Scan(table, nil, nil, nop)
	case "ScanLimit":
		err = tx.ScanLimit(table, nil, nil, 2, nop)
	}
	return err
}

var (
	readOps  = []string{"Get", "Scan", "ScanLimit"}
	writeOps = []string{"GetForUpdate", "Put", "Insert", "Delete"}
	allOps   = slices.Concat(readOps, writeOps)
)

// TestEveryStatementChecksItsFootprint: each statement method outside the
// program's footprint fails with ErrFootprint, leaves the transaction
// running, counts one violation and escalates the layer.
func TestEveryStatementChecksItsFootprint(t *testing.T) {
	pdb := smallBank(t, true, nil)
	tx := begin(t, pdb, smallbank.ProgTransactSaving, ssidb.SnapshotIsolation) // reads account, saving; writes saving
	for _, op := range allOps {
		if err := statement(tx, op, smallbank.TableChecking); !errors.Is(err, programs.ErrFootprint) {
			t.Errorf("%s outside the footprint: %v, want ErrFootprint", op, err)
		}
	}
	// Account is read, not written: a locked read of it is a write intent.
	if _, _, err := tx.GetForUpdate(smallbank.TableAccount, smallbank.Name(0)); !errors.Is(err, programs.ErrFootprint) {
		t.Errorf("GetForUpdate of a table only read: %v, want ErrFootprint", err)
	}
	if _, _, err := tx.Get(smallbank.TableSaving, id0); err != nil {
		t.Fatalf("in-footprint read after the violations: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := pdb.StatsSnapshot(); st.FootprintViolations != 8 || st.SDGEscalations != 8 || !st.SDGEscalated {
		t.Errorf("stats %+v, want 8 violations, 8 escalations, escalated", st)
	}
}

// TestStatementErrorPrecedence: a finished program transaction answers
// ErrTxnDone, and a declared read-only program's write or GetForUpdate
// ErrReadOnly, before the footprint is asked, so neither counts a violation
// or escalates, whatever the table.
func TestStatementErrorPrecedence(t *testing.T) {
	pdb := smallBank(t, true, nil)
	tx := begin(t, pdb, smallbank.ProgTransactSaving, ssidb.SnapshotIsolation)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{smallbank.TableSaving, smallbank.TableChecking} {
		for _, op := range allOps {
			if err := statement(tx, op, table); !errors.Is(err, ssidb.ErrTxnDone) {
				t.Errorf("%s of %s on a committed program: %v, want ErrTxnDone", op, table, err)
			}
		}
	}
	if err := tx.Commit(); !errors.Is(err, ssidb.ErrTxnDone) {
		t.Errorf("second Commit: %v, want ErrTxnDone", err)
	}

	ro := smallBank(t, false, nil)
	tx = begin(t, ro, smallbank.ProgBalance, ssidb.SerializableSI) // declared read-only
	for _, table := range []string{smallbank.TableChecking, "undeclared"} {
		for _, op := range writeOps {
			if err := statement(tx, op, table); !errors.Is(err, ssidb.ErrReadOnly) {
				t.Errorf("%s of %s on a read-only program: %v, want ErrReadOnly", op, table, err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]*programs.DB{"finished": pdb, "read-only": ro} {
		if st := l.StatsSnapshot(); st.FootprintViolations != 0 || st.SDGEscalations != 0 || st.SDGEscalated {
			t.Errorf("%s: stats %+v, want no violation and no escalation", name, st)
		}
	}
}

// adhoc calls pdb.Adhoc on a goroutine of its own, and returns, once the call
// has tripped the latch and so is draining, a channel closed when it returns.
func adhoc(pdb *programs.DB) <-chan struct{} {
	before := pdb.StatsSnapshot().SDGEscalations
	done := make(chan struct{})
	go func() {
		pdb.Adhoc()
		close(done)
	}()
	for pdb.StatsSnapshot().SDGEscalations == before {
		runtime.Gosched()
	}
	return done
}

func stillDraining(t *testing.T, done <-chan struct{}, why string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("Adhoc returned while %s", why)
	case <-time.After(20 * time.Millisecond):
	}
}

func drained(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Adhoc did not return once no SI program transaction was open")
	}
}

// TestAdhocWaitsForSIPrograms: Adhoc does not return while a program
// transaction admitted at SI is open, and does once it commits. A program
// begun meanwhile runs at SerializableSI and holds no share.
func TestAdhocWaitsForSIPrograms(t *testing.T) {
	pdb := smallBank(t, true, nil)
	tx := begin(t, pdb, smallbank.ProgDepositChecking, ssidb.SnapshotIsolation)
	if err := smallbank.DepositChecking(tx, 0, 5); err != nil {
		t.Fatal(err)
	}
	done := adhoc(pdb)
	stillDraining(t, done, "an SI program transaction was open")
	late := begin(t, pdb, smallbank.ProgDepositChecking, ssidb.SerializableSI)
	stillDraining(t, done, "an SI program transaction was open")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	drained(t, done)
	late.Abort()
	if st := pdb.StatsSnapshot(); st.ProgramRuns != 2 || st.ProgramSIRuns != 1 || !st.SDGEscalated {
		t.Errorf("stats %+v, want 2 runs, 1 at SI, escalated", st)
	}
}

// TestStatementErrorsAndTheDrainShare: a statement error that ended the
// engine transaction (Retryable) returns the program's drain share at once,
// so a caller that drops the transaction without Abort cannot hold up
// Adhoc; one that leaves it running (ErrKeyExists, ErrFootprint) keeps the
// share until Commit or Abort.
func TestStatementErrorsAndTheDrainShare(t *testing.T) {
	t.Run("write conflict", func(t *testing.T) {
		pdb := smallBank(t, true, nil)
		tx := begin(t, pdb, smallbank.ProgDepositChecking, ssidb.SnapshotIsolation)
		if _, _, err := tx.Get(smallbank.TableChecking, id0); err != nil { // takes the snapshot
			t.Fatal(err)
		}
		if err := pdb.RunProgram(smallbank.ProgDepositChecking, func(other *programs.Txn) error {
			return other.Put(smallbank.TableChecking, id0, []byte("x"))
		}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(smallbank.TableChecking, id0, []byte("y")); !errors.Is(err, ssidb.ErrWriteConflict) {
			t.Fatalf("Put over a newer version: %v, want ErrWriteConflict", err)
		}
		drained(t, adhoc(pdb)) // tx is dropped, never aborted
		if _, _, err := tx.Get(smallbank.TableChecking, id0); !errors.Is(err, ssidb.ErrTxnDone) {
			t.Errorf("Get after the abort: %v, want ErrTxnDone", err)
		}
	})
	for name, stmt := range map[string]func(*programs.Txn) error{
		"key exists": func(tx *programs.Txn) error { return tx.Insert(smallbank.TableChecking, id0, []byte("v")) },
		"footprint":  func(tx *programs.Txn) error { return tx.Put(smallbank.TableSaving, id0, []byte("v")) },
	} {
		t.Run(name, func(t *testing.T) {
			pdb := smallBank(t, true, nil)
			tx := begin(t, pdb, smallbank.ProgDepositChecking, ssidb.SnapshotIsolation) // writes checking only
			if err := stmt(tx); err == nil || ssidb.Retryable(err) {
				t.Fatalf("statement: %v, want a statement-level error", err)
			}
			done := adhoc(pdb)
			stillDraining(t, done, "the transaction a statement error left running was open")
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			drained(t, done)
		})
	}
}

// TestPromotedScanLimitWritesWhatItShowed: a promoted ScanLimit writes back
// exactly the rows it showed its callback, the one the callback stopped at
// included, and nothing beyond.
func TestPromotedScanLimitWritesWhatItShowed(t *testing.T) {
	for _, c := range []struct {
		limit, stopAt, want int
	}{
		{limit: 3, stopAt: -1, want: 3}, // the limit ends the scan
		{limit: 5, stopAt: 1, want: 2},  // the callback does
	} {
		rec := &recorder{}
		pdb := smallBank(t, true, rec)
		rec.take()
		var shown []string
		if err := pdb.RunProgram(smallbank.ProgBalance, func(tx *programs.Txn) error {
			return tx.ScanLimit(smallbank.TableChecking, nil, nil, c.limit, func(k, v []byte) bool {
				shown = append(shown, smallbank.TableChecking+"/"+string(k))
				return len(shown)-1 != c.stopAt
			})
		}); err != nil {
			t.Fatal(err)
		}
		if got := rec.take(); len(shown) != c.want || !slices.Equal(got, shown) {
			t.Errorf("limit %d, stop at %d: showed %q, wrote %q; want %d rows written as shown", c.limit, c.stopAt, shown, got, c.want)
		}
	}
}
