package ssidb_test

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ssi/internal/harness"
	"ssi/internal/sdg"
	"ssi/internal/sercheck"
	"ssi/internal/workload/smallbank"
	"ssi/programs"
	"ssi/ssidb"
)

func sbLoad(t *testing.T, db *ssidb.DB, cfg smallbank.Config) {
	t.Helper()
	if err := smallbank.Load(db, cfg); err != nil {
		t.Fatal(err)
	}
}

// id0 is the id key of customer 0 (smallbank ids are big-endian uint32).
// i64/geti64 come from durability_test.go (same package).
var id0 = []byte{0, 0, 0, 0}

// TestRegisterSmallBankReport pins the registration verdicts: SmallBank is
// not robust as declared (WriteCheck is the pivot), and AutoRemedy fixes it
// with exactly PromoteBW — Balance identity-writing the checking table.
func TestRegisterSmallBankReport(t *testing.T) {
	db := programs.New(ssidb.Open(ssidb.Options{}))
	rep, err := smallbank.Register(db, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Robust || rep.Level != ssidb.SerializableSI {
		t.Fatalf("unremedied report = %+v, want non-robust at SerializableSI", rep)
	}
	if want := []string{"WC"}; !reflect.DeepEqual(rep.Pivots, want) {
		t.Errorf("pivots = %v, want %v", rep.Pivots, want)
	}

	db2 := programs.New(ssidb.Open(ssidb.Options{}))
	rep2, err := smallbank.Register(db2, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Robust || rep2.Level != ssidb.SnapshotIsolation {
		t.Fatalf("remedied report = %+v, want robust at SnapshotIsolation", rep2)
	}
	if want := []sdg.Remedy{{From: "Bal", To: "WC"}}; !reflect.DeepEqual(rep2.Remedies, want) {
		t.Errorf("remedies = %v, want %v", rep2.Remedies, want)
	}
	if want := map[string][]string{"Bal": {smallbank.TableChecking}}; !reflect.DeepEqual(rep2.Promoted, want) {
		t.Errorf("promoted = %v, want %v", rep2.Promoted, want)
	}
}

func TestRegisterErrors(t *testing.T) {
	db := programs.New(ssidb.Open(ssidb.Options{}))
	if _, err := db.RegisterPrograms(nil, programs.ProgramOptions{}); err == nil {
		t.Error("empty set: want error")
	}
	p := &sdg.Program{Name: "P", Reads: []sdg.Item{sdg.I("X", "n")}}
	if _, err := db.RegisterPrograms([]*sdg.Program{p, p}, programs.ProgramOptions{
		ClassTables: map[string]string{"X": "x"}}); err == nil {
		t.Error("duplicate name: want error")
	}
	if _, err := db.RegisterPrograms([]*sdg.Program{p}, programs.ProgramOptions{}); err == nil {
		t.Error("unmapped class: want error")
	}
	if _, err := db.RegisterPrograms([]*sdg.Program{p}, programs.ProgramOptions{
		ClassTables: map[string]string{"X": "x"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RegisterPrograms([]*sdg.Program{p}, programs.ProgramOptions{
		ClassTables: map[string]string{"X": "x"}}); err == nil {
		t.Error("double registration: want error")
	}
	if _, err := db.BeginProgram("nope"); err == nil {
		t.Error("unknown program: want error")
	}
}

// TestProgramIsolationLevels: a robust (remedied) set runs at plain SI; the
// same set unremedied runs at SerializableSI; read-only programs of an
// unremedied set carry the declared-RO flag (PR 6 fast path), while the
// promoted Balance of the remedied set must not (it writes).
func TestProgramIsolationLevels(t *testing.T) {
	cfg := smallbank.DefaultConfig()
	cfg.Accounts = 4

	db := ssidb.Open(ssidb.Options{})
	sbLoad(t, db, cfg)
	pdb := programs.New(db)
	if _, err := smallbank.Register(pdb, true); err != nil {
		t.Fatal(err)
	}
	tx, err := pdb.BeginProgram(smallbank.ProgDepositChecking)
	if err != nil {
		t.Fatal(err)
	}
	if tx.Isolation() != ssidb.SnapshotIsolation {
		t.Errorf("robust program at %v, want SnapshotIsolation", tx.Isolation())
	}
	if declaredReadOnly(tx) {
		t.Error("DC is read-write")
	}
	tx.Abort()
	tx, err = pdb.BeginProgram(smallbank.ProgBalance)
	if err != nil {
		t.Fatal(err)
	}
	if declaredReadOnly(tx) {
		t.Error("promoted Bal writes checking; must not be declared RO")
	}
	tx.Abort()

	db2 := ssidb.Open(ssidb.Options{})
	sbLoad(t, db2, cfg)
	pdb2 := programs.New(db2)
	if _, err := smallbank.Register(pdb2, false); err != nil {
		t.Fatal(err)
	}
	tx, err = pdb2.BeginProgram(smallbank.ProgBalance)
	if err != nil {
		t.Fatal(err)
	}
	if tx.Isolation() != ssidb.SerializableSI {
		t.Errorf("non-robust program at %v, want SerializableSI", tx.Isolation())
	}
	if !declaredReadOnly(tx) {
		t.Error("unremedied Bal is read-only; must ride the declared-RO path")
	}
	tx.Abort()
}

// declaredReadOnly reports whether the program transaction tx was begun
// declared read-only, which the engine shows by refusing its GetForUpdate
// with ErrReadOnly (a program transaction has no ReadOnly accessor). Every
// program GetForUpdate here is inside its footprint.
func declaredReadOnly(tx *programs.Txn) bool {
	_, _, err := tx.GetForUpdate(smallbank.TableChecking, id0)
	return errors.Is(err, ssidb.ErrReadOnly)
}

// TestFootprintViolationEscalates: an access outside the declared footprint
// fails that statement with ErrFootprint (the transaction stays usable, like
// ErrReadOnly), increments the violation and escalation counters, and
// permanently escalates program execution to SerializableSI.
func TestFootprintViolationEscalates(t *testing.T) {
	cfg := smallbank.DefaultConfig()
	cfg.Accounts = 4
	db := ssidb.Open(ssidb.Options{})
	sbLoad(t, db, cfg)
	pdb := programs.New(db)
	if _, err := smallbank.Register(pdb, true); err != nil {
		t.Fatal(err)
	}

	tx, err := pdb.BeginProgram(smallbank.ProgTransactSaving)
	if err != nil {
		t.Fatal(err)
	}
	if tx.Isolation() != ssidb.SnapshotIsolation {
		t.Fatalf("precondition: robust program should start at SI")
	}
	// TS declares {account, saving}; checking is out of footprint.
	if _, _, err := tx.Get(smallbank.TableChecking, id0); !errors.Is(err, programs.ErrFootprint) {
		t.Fatalf("out-of-footprint read: err = %v, want ErrFootprint", err)
	}
	// Statement-level: the transaction continues inside its footprint.
	if _, _, err := tx.Get(smallbank.TableSaving, id0); err != nil {
		t.Fatalf("in-footprint read after violation: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit after statement-level violation: %v", err)
	}

	if !pdb.StatsSnapshot().SDGEscalated {
		t.Fatal("database did not escalate")
	}
	st := pdb.StatsSnapshot()
	if st.FootprintViolations != 1 || st.SDGEscalations < 1 || !st.SDGEscalated {
		t.Fatalf("stats = %+v, want 1 violation and >=1 escalation", st)
	}

	// Permanently: every later program transaction runs at SerializableSI.
	tx, err = pdb.BeginProgram(smallbank.ProgDepositChecking)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if tx.Isolation() != ssidb.SerializableSI {
		t.Errorf("post-escalation program at %v, want SerializableSI", tx.Isolation())
	}
}

// TestAdhocBeginEscalates: any ad-hoc transaction alongside registered
// programs voids the proof.
func TestAdhocBeginEscalates(t *testing.T) {
	cfg := smallbank.DefaultConfig()
	cfg.Accounts = 4
	db := ssidb.Open(ssidb.Options{})
	sbLoad(t, db, cfg) // load is ad-hoc but precedes registration: no effect
	pdb := programs.New(db)
	if _, err := smallbank.Register(pdb, true); err != nil {
		t.Fatal(err)
	}
	if pdb.StatsSnapshot().SDGEscalated {
		t.Fatal("escalated before any ad-hoc begin")
	}
	if _, err := smallbank.TotalMoney(pdb.Adhoc(), cfg); err != nil {
		t.Fatal(err)
	}
	if !pdb.StatsSnapshot().SDGEscalated {
		t.Fatal("ad-hoc transaction did not escalate")
	}
	if st := pdb.StatsSnapshot(); st.SDGEscalations < 1 {
		t.Fatalf("SDGEscalations = %d, want >= 1", st.SDGEscalations)
	}
}

// writeSkewSchedule drives the thesis §2.8.4 SmallBank anomaly schedule on
// customer 0 (sav=100, chk=100):
//
//	T_ts  reads sav=100, writes sav=0            (TransactSaving -100)
//	T_wc  reads sav=100, chk=100 (same snapshot) (WriteCheck 150, read half)
//	T_ts  commits
//	T_bal reads sav=0, chk=100, commits          (Balance)
//	T_wc  writes chk=-50, commits                (WriteCheck, write half)
//
// Under plain SI all three commit and the MVSG has the cycle
// TS →wr Bal →rw WC →rw TS. Under the remedied registry, Balance's promoted
// identity write of chk makes T_wc's write a First-Committer-Wins conflict.
// begin returns the three transactions in schedule order; the caller supplies
// how each is begun.
func writeSkewSchedule(t *testing.T, db *ssidb.DB,
	begin func(name string) skewTxn) (wcErr error) {
	t.Helper()

	ts := begin("TS")
	if err := smallbank.TransactSaving(ts, 0, -100); err != nil {
		t.Fatalf("TransactSaving: %v", err)
	}

	wc := begin("WC")
	// WriteCheck's read half, done piecewise so the schedule can put the
	// write after T_bal commits.
	if _, _, err := wc.Get(smallbank.TableAccount, smallbank.Name(0)); err != nil {
		t.Fatalf("WC lookup: %v", err)
	}
	sv, _, err := wc.Get(smallbank.TableSaving, id0)
	if err != nil {
		t.Fatalf("WC read saving: %v", err)
	}
	cv, _, err := wc.Get(smallbank.TableChecking, id0)
	if err != nil {
		t.Fatalf("WC read checking: %v", err)
	}
	if geti64(sv)+geti64(cv) < 150 {
		t.Fatalf("WC snapshot saw s=%d c=%d, want pre-TS values", geti64(sv), geti64(cv))
	}

	if err := ts.Commit(); err != nil {
		t.Fatalf("TS commit: %v", err)
	}

	bal := begin("Bal")
	total, err := smallbank.Balance(bal, 0)
	if err != nil {
		t.Fatalf("Balance: %v", err)
	}
	if total != 100 {
		t.Fatalf("Balance saw %d, want 100 (after TS, before WC)", total)
	}
	if err := bal.Commit(); err != nil {
		t.Fatalf("Bal commit: %v", err)
	}

	// WriteCheck's write half: chk = 100 - 150.
	if err := wc.Put(smallbank.TableChecking, id0, i64(geti64(cv)-150)); err != nil {
		wc.Abort()
		return err
	}
	return wc.Commit()
}

// skewTxn is a transaction writeSkewSchedule drives: an engine transaction
// or a program transaction.
type skewTxn interface {
	smallbank.Tx
	Commit() error
	Abort() error
}

func skewConfig() smallbank.Config {
	cfg := smallbank.DefaultConfig()
	cfg.Accounts = 1
	cfg.InitialBalance = 100
	return cfg
}

// TestWriteSkewNegativeControl: un-remedied SmallBank at plain SI commits the
// anomaly, and sercheck catches the cycle — the checker and schedule are
// sound, so TestWriteSkewRemediedSI below is meaningful.
func TestWriteSkewNegativeControl(t *testing.T) {
	hist := sercheck.NewHistory()
	db := ssidb.Open(ssidb.Options{Recorder: hist})
	sbLoad(t, db, skewConfig())

	wcErr := writeSkewSchedule(t, db, func(string) skewTxn {
		return db.Begin(ssidb.SnapshotIsolation)
	})
	if wcErr != nil {
		t.Fatalf("plain SI must commit the anomaly, got %v", wcErr)
	}
	ok, cycle := hist.Serializable()
	if ok {
		t.Fatal("checker missed the WriteCheck write-skew anomaly")
	}
	if len(cycle) == 0 {
		t.Fatal("non-serializable verdict without a witness cycle")
	}
}

// TestWriteSkewRemediedSI: the same schedule driven through the remedied
// program registry at plain SI. Balance's promoted identity write turns the
// vulnerable Bal ~> WC edge into a write-write conflict, so WriteCheck's
// write aborts under First-Committer-Wins and the history stays serializable.
func TestWriteSkewRemediedSI(t *testing.T) {
	hist := sercheck.NewHistory()
	db := ssidb.Open(ssidb.Options{Recorder: hist})
	sbLoad(t, db, skewConfig())
	pdb := programs.New(db)
	if _, err := smallbank.Register(pdb, true); err != nil {
		t.Fatal(err)
	}

	wcErr := writeSkewSchedule(t, db, func(name string) skewTxn {
		tx, err := pdb.BeginProgram(name)
		if err != nil {
			t.Fatal(err)
		}
		if tx.Isolation() != ssidb.SnapshotIsolation {
			t.Fatalf("program %s at %v, want SnapshotIsolation", name, tx.Isolation())
		}
		return tx
	})
	if !errors.Is(wcErr, ssidb.ErrWriteConflict) {
		t.Fatalf("WriteCheck err = %v, want ErrWriteConflict (promotion collision)", wcErr)
	}
	if ok, cycle := hist.Serializable(); !ok {
		t.Fatalf("remedied SI history not serializable; cycle %v", cycle)
	}
	if st := pdb.StatsSnapshot(); st.FootprintViolations != 0 || st.SDGEscalated {
		t.Fatalf("stats = %+v, want no violations/escalation", st)
	}
}

// TestRemediedSmallBankSerializableRandom is the property suite: the full
// SmallBank mix through the remedied registry — every transaction at plain
// SI — must yield an acyclic multiversion serialization graph.
func TestRemediedSmallBankSerializableRandom(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		hist := sercheck.NewHistory()
		db := ssidb.Open(ssidb.Options{Recorder: hist})
		cfg := smallbank.DefaultConfig()
		cfg.Accounts = 8 // hot: plenty of rw collisions
		sbLoad(t, db, cfg)
		pdb := programs.New(db)
		if _, err := smallbank.Register(pdb, true); err != nil {
			t.Fatal(err)
		}

		const workers, ops = 4, 150
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				fn := smallbank.ProgramWorker(pdb, cfg)
				r := rand.New(rand.NewSource(seed*100 + int64(w)))
				for i := 0; i < ops; i++ {
					if err := fn(r); err != nil &&
						!ssidb.Retryable(err) && !errors.Is(err, harness.ErrRollback) {
						t.Errorf("worker %d op %d: %v", w, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()

		st := pdb.StatsSnapshot()
		if st.FootprintViolations != 0 || st.SDGEscalated {
			t.Fatalf("seed %d: stats = %+v, want clean program run", seed, st)
		}
		if st.ProgramSIRuns != st.ProgramRuns {
			t.Fatalf("seed %d: %d of %d program runs not at SI", seed,
				st.ProgramRuns-st.ProgramSIRuns, st.ProgramRuns)
		}
		if ok, cycle := hist.Serializable(); !ok {
			t.Fatalf("seed %d: remedied SmallBank at SI not serializable; cycle %v", seed, cycle)
		}
	}
}

// TestFootprintEscalationRace races program workers against a mid-flight
// footprint violation: the latch must flip exactly once logically (counters
// only grow), in-flight SI transactions must drain cleanly, and everything
// after the flip runs at SerializableSI. Run under -race in CI.
func TestFootprintEscalationRace(t *testing.T) {
	cfg := smallbank.DefaultConfig()
	cfg.Accounts = 16
	db := ssidb.Open(ssidb.Options{})
	sbLoad(t, db, cfg)
	pdb := programs.New(db)
	if _, err := smallbank.Register(pdb, true); err != nil {
		t.Fatal(err)
	}

	const workers, ops = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn := smallbank.ProgramWorker(pdb, cfg)
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				if err := fn(r); err != nil &&
					!ssidb.Retryable(err) && !errors.Is(err, harness.ErrRollback) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if w == 0 && i == ops/2 {
					// Mid-flight violation: TS touching the checking table.
					err := pdb.RunProgram(smallbank.ProgTransactSaving, func(tx *programs.Txn) error {
						_, _, gerr := tx.Get(smallbank.TableChecking, id0)
						if !errors.Is(gerr, programs.ErrFootprint) {
							t.Errorf("violation err = %v, want ErrFootprint", gerr)
						}
						return nil
					})
					if err != nil && !ssidb.Retryable(err) {
						t.Errorf("violating txn: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if !pdb.StatsSnapshot().SDGEscalated {
		t.Fatal("violation did not escalate")
	}
	st := pdb.StatsSnapshot()
	if st.FootprintViolations < 1 || st.SDGEscalations < 1 {
		t.Fatalf("stats = %+v, want violation and escalation recorded", st)
	}
	tx, err := pdb.BeginProgram(smallbank.ProgBalance)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if tx.Isolation() != ssidb.SerializableSI {
		t.Errorf("post-race program at %v, want SerializableSI", tx.Isolation())
	}
}
