package smallbank

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"ssi/internal/harness"
	"ssi/ssidb"
)

func load(t *testing.T, opts ssidb.Options, cfg Config) *ssidb.DB {
	t.Helper()
	db := ssidb.Open(opts)
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOperationsSemantics(t *testing.T) {
	cfg := Config{Accounts: 10, OpsPerTxn: 1, InitialBalance: 1000}
	db := load(t, ssidb.Options{}, cfg)

	if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		return DepositChecking(tx, 3, 500)
	}); err != nil {
		t.Fatal(err)
	}
	var bal int64
	db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		var err error
		bal, err = Balance(tx, 3)
		return err
	})
	if bal != 2500 {
		t.Fatalf("balance = %d, want 2500", bal)
	}

	// TransactSaving refuses to overdraw savings.
	err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		return TransactSaving(tx, 3, -5000)
	})
	if !errors.Is(err, harness.ErrRollback) {
		t.Fatalf("overdraw = %v, want rollback", err)
	}

	// Amalgamate moves everything to the target's checking account.
	if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		return Amalgamate(tx, 3, 4)
	}); err != nil {
		t.Fatal(err)
	}
	db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		var err error
		bal, err = Balance(tx, 3)
		return err
	})
	if bal != 0 {
		t.Fatalf("amalgamated source balance = %d", bal)
	}
	db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		var err error
		bal, err = Balance(tx, 4)
		return err
	})
	if bal != 4500 {
		t.Fatalf("amalgamated target balance = %d, want 4500", bal)
	}

	// WriteCheck applies the overdraft penalty.
	if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		return WriteCheck(tx, 3, 100)
	}); err != nil {
		t.Fatal(err)
	}
	db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		var err error
		bal, err = Balance(tx, 3)
		return err
	})
	if bal != -200 { // 0 - 100 - $1 penalty
		t.Fatalf("overdrawn balance = %d, want -200", bal)
	}
}

// TestMoneyConservedUnderConcurrency runs a conserving mix (deposits matched
// by withdrawals via Amalgamate only move money) and checks the total.
func TestMoneyConservedUnderConcurrency(t *testing.T) {
	for _, iso := range []ssidb.Isolation{ssidb.SnapshotIsolation, ssidb.SerializableSI, ssidb.S2PL} {
		cfg := Config{Accounts: 50, InitialBalance: 10_000}
		db := load(t, ssidb.Options{Detector: ssidb.DetectorPrecise}, cfg)
		before, err := TotalMoney(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 100; i++ {
					db.RunRetry(iso, func(tx *ssidb.Txn) error {
						n1, n2 := r.Intn(cfg.Accounts), r.Intn(cfg.Accounts)
						if n1 == n2 {
							n2 = (n2 + 1) % cfg.Accounts
						}
						return Amalgamate(tx, n1, n2)
					})
				}
			}(g)
		}
		wg.Wait()
		after, err := TotalMoney(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if before != after {
			t.Fatalf("%v: money not conserved: %d -> %d", iso, before, after)
		}
		if st := db.StatsSnapshot(); st.ActiveTxns != 0 {
			t.Fatalf("leaked transactions: %+v", st)
		}
	}
}

// TestHarnessRun exercises the full benchmark path at every isolation level
// and granularity, including the page-mode configuration of Chapter 6.1.
func TestHarnessRun(t *testing.T) {
	granularities := []ssidb.Granularity{ssidb.GranularityRow, ssidb.GranularityPage}
	for _, g := range granularities {
		for _, iso := range []ssidb.Isolation{ssidb.SnapshotIsolation, ssidb.SerializableSI, ssidb.S2PL} {
			cfg := Config{Accounts: 200, OpsPerTxn: 1, InitialBalance: 100_000}
			db := load(t, ssidb.Options{Granularity: g, PageMaxKeys: 10, Detector: ssidb.DetectorPrecise}, cfg)
			res := harness.Run(Worker(db, iso, cfg), harness.Options{MPL: 4, Duration: 50_000_000}) // 50ms
			if res.Commits == 0 {
				t.Fatalf("granularity %v, iso %v: no commits", g, iso)
			}
			if iso != ssidb.SerializableSI && res.Unsafe != 0 {
				t.Fatalf("%v reported unsafe errors", iso)
			}
		}
	}
}

// TestPageLeafCount checks the paper's sizing claim: ~100 leaf pages for the
// high-contention configuration.
func TestPageLeafCount(t *testing.T) {
	cfg := DefaultConfig()
	db := ssidb.Open(ssidb.Options{Granularity: ssidb.GranularityPage, PageMaxKeys: 10})
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	pages := db.TableStats(TableChecking).Pages
	if pages < 80 || pages > 250 {
		t.Fatalf("checking table pages = %d, want on the order of 100-200", pages)
	}
}
