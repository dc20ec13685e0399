package tpcc

import (
	"math/rand"
	"testing"
	"time"

	"ssi/internal/harness"
	"ssi/ssidb"
)

// testConfig is a small-but-complete configuration for fast tests.
func testConfig() Config {
	return Config{Warehouses: 1, Tiny: true, InitialOrders: 30, CreditLimit: 5_000_000}
}

func loadDB(t *testing.T, cfg Config, opts ssidb.Options) *ssidb.DB {
	t.Helper()
	db := ssidb.Open(opts)
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestLoadProducesConsistentData(t *testing.T) {
	cfg := testConfig()
	db := loadDB(t, cfg, ssidb.Options{})
	if err := CheckConsistency(db, cfg); err != nil {
		t.Fatal(err)
	}
	if n := db.TableStats(TItem).Keys; n != cfg.Items() {
		t.Fatalf("items = %d, want %d", n, cfg.Items())
	}
	if n := db.TableStats(TCustomer).Keys; n != Districts*cfg.CustomersPerDistrict() {
		t.Fatalf("customers = %d", n)
	}
	if n := db.TableStats(TOrder).Keys; n != Districts*cfg.InitialOrders {
		t.Fatalf("orders = %d", n)
	}
}

func TestEachTransactionType(t *testing.T) {
	cfg := testConfig()
	db := loadDB(t, cfg, ssidb.Options{Detector: ssidb.DetectorPrecise})
	r := rand.New(rand.NewSource(7))
	txns := map[string]func(tx *ssidb.Txn) error{
		"NewOrder":    func(tx *ssidb.Txn) error { return NewOrder(tx, cfg, r, 1) },
		"Payment":     func(tx *ssidb.Txn) error { return Payment(tx, cfg, r, 1) },
		"OrderStatus": func(tx *ssidb.Txn) error { return OrderStatus(tx, cfg, r, 1) },
		"Delivery":    func(tx *ssidb.Txn) error { return Delivery(tx, cfg, r, 1) },
		"StockLevel":  func(tx *ssidb.Txn) error { return StockLevel(tx, cfg, r, 1) },
		"CreditCheck": func(tx *ssidb.Txn) error { return CreditCheck(tx, cfg, r, 1) },
	}
	for name, fn := range txns {
		for i := 0; i < 10; i++ {
			if err := db.Run(ssidb.SerializableSI, fn); err != nil && err != harness.ErrRollback {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	if err := CheckConsistency(db, cfg); err != nil {
		t.Fatalf("after transactions: %v", err)
	}
}

func TestNewOrderAdvancesDistrict(t *testing.T) {
	cfg := testConfig()
	db := loadDB(t, cfg, ssidb.Options{})
	r := rand.New(rand.NewSource(1))
	before := db.TableStats(TOrder).Keys
	committed := 0
	for i := 0; i < 20; i++ {
		err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
			return NewOrder(tx, cfg, r, 1)
		})
		if err == nil {
			committed++
		} else if err != harness.ErrRollback {
			t.Fatal(err)
		}
	}
	if got := db.TableStats(TOrder).Keys - before; got != committed {
		t.Fatalf("order rows grew by %d, committed %d", got, committed)
	}
	if err := CheckConsistency(db, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveryDrainsNewOrders(t *testing.T) {
	cfg := testConfig()
	db := loadDB(t, cfg, ssidb.Options{})
	r := rand.New(rand.NewSource(2))
	countPending := func() int {
		n := 0
		db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			n = 0
			return tx.Scan(TNewOrder, nil, nil, func(k, v []byte) bool { n++; return true })
		})
		return n
	}
	before := countPending()
	if before == 0 {
		t.Fatal("no undelivered orders loaded")
	}
	if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		return Delivery(tx, cfg, r, 1)
	}); err != nil {
		t.Fatal(err)
	}
	after := countPending()
	if after != before-Districts {
		t.Fatalf("pending %d -> %d, want one delivery per district", before, after)
	}
	if err := CheckConsistency(db, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMixConsistency is the integration core: run the full mix
// concurrently at each isolation level and verify the structural TPC-C
// consistency conditions afterwards (they hold even at SI; what SI breaks
// is the credit-status semantics, not these).
func TestConcurrentMixConsistency(t *testing.T) {
	for _, iso := range []ssidb.Isolation{ssidb.SnapshotIsolation, ssidb.SerializableSI, ssidb.S2PL} {
		cfg := testConfig()
		db := loadDB(t, cfg, ssidb.Options{Detector: ssidb.DetectorPrecise})
		res := harness.Run(Worker(db, iso, cfg), harness.Options{MPL: 8, Duration: 300 * time.Millisecond})
		if res.Commits == 0 {
			t.Fatalf("%v: no commits", iso)
		}
		if err := CheckConsistency(db, cfg); err != nil {
			t.Fatalf("%v: %v (after %+v)", iso, err, res.Counts)
		}
		if st := db.StatsSnapshot(); st.ActiveTxns != 0 {
			t.Fatalf("%v: leaked transactions %+v", iso, st)
		}
	}
}

// TestCreditCheckAnomalyShape demonstrates the §5.3.3 write skew
// mechanically: a Credit Check runs concurrently with a Payment (clearing
// the debt) and a New Order (which reads the credit status and inserts into
// the NewOrder range the check scanned). At SI everything commits and a
// stale "bad credit" verdict lands; at Serializable SI the cycle
// CCHECK → NEWO → CCHECK is detected and one transaction aborts.
func TestCreditCheckAnomalyShape(t *testing.T) {
	run := func(iso ssidb.Isolation) (string, []error) {
		cfg := Config{Warehouses: 1, Tiny: true, InitialOrders: 0, CreditLimit: 1000}
		db := loadDB(t, cfg, ssidb.Options{Detector: ssidb.DetectorPrecise})
		var errs []error
		w, d, c := uint32(1), uint32(1), uint32(1)

		// The customer owes $15 (balance 1500 > limit 1000).
		errs = append(errs, db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			return tx.Put(TCustBal, K(w, d, c), i64(1500))
		}))

		// Credit check starts: reads the balance and the (empty) set of
		// undelivered orders.
		cc := db.Begin(iso)
		bv, _, err := cc.Get(TCustBal, K(w, d, c))
		errs = append(errs, err)
		balance := geti64(bv)
		if err := cc.Scan(TNewOrder, K(w, d), prefixEnd(K(w, d)), func(k, v []byte) bool { return true }); err != nil {
			errs = append(errs, err)
		}

		// A payment clears the debt concurrently.
		pay := db.Begin(iso)
		pv, _, err := pay.GetForUpdate(TCustBal, K(w, d, c))
		errs = append(errs, err)
		errs = append(errs, pay.Put(TCustBal, K(w, d, c), i64(geti64(pv)-1400)))
		errs = append(errs, pay.Commit())

		// A new order is placed: it shows the customer their (still good)
		// credit status and inserts an undelivered order — the insert the
		// credit check's scan missed.
		no := db.Begin(iso)
		_, _, err = no.Get(TCustCredit, K(w, d, c))
		errs = append(errs, err)
		errs = append(errs, no.Insert(TNewOrder, K(w, d, 501), nil))
		errs = append(errs, no.Commit())

		// The credit check commits its now-stale verdict.
		credit := "GC"
		if balance > 1000 {
			credit = "BC"
		}
		errs = append(errs, cc.Put(TCustCredit, K(w, d, c), []byte(credit)))
		errs = append(errs, cc.Commit())

		var status string
		db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			v, _, err := tx.Get(TCustCredit, K(w, d, c))
			status = string(v)
			return err
		})
		return status, errs
	}

	status, errs := run(ssidb.SnapshotIsolation)
	for _, err := range errs {
		if err != nil {
			t.Fatalf("SI run error: %v", err)
		}
	}
	if status != "BC" {
		t.Fatalf("SI status = %q, want the stale BC verdict", status)
	}

	status, errs = run(ssidb.SerializableSI)
	aborted := false
	for _, err := range errs {
		if ssidb.Retryable(err) {
			aborted = true
		}
	}
	if !aborted {
		t.Fatal("SSI did not break the credit-check write skew")
	}
	if status == "BC" {
		t.Fatal("SSI let the stale credit verdict commit")
	}
}

func TestPrefixEnd(t *testing.T) {
	cases := []struct{ in, want []byte }{
		{[]byte{1, 2, 3}, []byte{1, 2, 4}},
		{[]byte{1, 0xff}, []byte{2}},
		{[]byte{0xff, 0xff}, nil},
	}
	for _, c := range cases {
		got := prefixEnd(c.in)
		if string(got) != string(c.want) {
			t.Fatalf("prefixEnd(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLastNameGeneration(t *testing.T) {
	if LastName(0) != "BARBARBAR" {
		t.Fatalf("LastName(0) = %q", LastName(0))
	}
	if LastName(371) != "PRICALLYOUGHT" {
		t.Fatalf("LastName(371) = %q", LastName(371))
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		n := NURand(r, 255, 0, 999, cLast)
		if n < 0 || n > 999 {
			t.Fatalf("NURand out of range: %d", n)
		}
	}
}
