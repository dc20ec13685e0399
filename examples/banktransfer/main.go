// The SmallBank write skew (thesis §2.8.4, Example 2): WriteCheck reads both
// of a customer's balances to decide whether an overdraft penalty applies,
// while TransactSaving concurrently withdraws from savings. Under plain SI
// the check can be written against a stale combined balance — the customer
// escapes a penalty the bank's rules require (or vice versa). This example
// runs the exact dangerous structure Bal ~> WC ~> TS at both levels, then
// shows a concurrent workload with automatic retries.
package main

import (
	"encoding/binary"
	"fmt"
	"sync"

	"ssi/internal/workload/smallbank"
	"ssi/ssidb"
)

func i64(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

// anomalyDemo runs the dangerous structure Bal ~> WC ~> TS of thesis §2.8.4:
// WriteCheck decides "no penalty" on a stale snapshot while TransactSaving
// empties the savings account, and an auditor's Balance query observes a
// state (combined balance zero, before the check) that is inconsistent with
// the final state (check cleared without penalty) under every serial order.
func anomalyDemo(iso ssidb.Isolation) {
	db := ssidb.Open(ssidb.Options{})
	cfg := smallbank.Config{Accounts: 4, InitialBalance: 0}
	if err := smallbank.Load(db, cfg); err != nil {
		panic(err)
	}
	// Customer 0: savings 100, checking 0.
	db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		return smallbank.TransactSaving(tx, 0, 100)
	})

	// WriteCheck starts first and reads both balances (sum = 100: a $100
	// check would clear without penalty).
	wc := db.Begin(iso)
	_, eWC := smallbank.Balance(wc, 0)

	// The savings withdrawal commits while the check is in flight.
	eTS := db.Run(iso, func(tx *ssidb.Txn) error {
		return smallbank.TransactSaving(tx, 0, -100)
	})

	// The auditor now sees savings 0 + checking 0: any future $100 check
	// must bounce with a penalty.
	var audited int64
	eBal := db.Run(iso, func(tx *ssidb.Txn) error {
		var err error
		audited, err = smallbank.Balance(tx, 0)
		return err
	})

	// The in-flight WriteCheck finishes on its old snapshot: no penalty.
	if eWC == nil {
		eWC = smallbank.WriteCheck(wc, 0, 100)
	}
	if eWC == nil {
		eWC = wc.Commit()
	} else {
		wc.Abort()
	}

	var final int64
	db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		var err error
		final, err = smallbank.Balance(tx, 0)
		return err
	})
	fmt.Printf("--- %v ---\n", iso)
	fmt.Printf("TransactSaving: %v\n", status(eTS))
	fmt.Printf("auditor Balance: %v (saw %d cents)\n", status(eBal), audited)
	fmt.Printf("WriteCheck:     %v\n", status(eWC))
	fmt.Printf("final balance:  %d cents\n", final)
	if eWC == nil && audited == 0 && final == -100 {
		fmt.Println("anomaly: the auditor saw a zero balance, so a later $100 check had to")
		fmt.Println("bounce with a penalty — yet it cleared penalty-free: no serial order explains this")
	} else {
		fmt.Println("serializable outcome")
	}
	fmt.Println()
}

func status(err error) string {
	if err == nil {
		return "committed"
	}
	return err.Error()
}

func main() {
	anomalyDemo(ssidb.SnapshotIsolation)
	anomalyDemo(ssidb.SerializableSI)

	// A concurrent mix with retries: the application treats unsafe errors
	// like deadlocks — retry and move on.
	db := ssidb.Open(ssidb.Options{})
	cfg := smallbank.DefaultConfig()
	cfg.Accounts = 100
	if err := smallbank.Load(db, cfg); err != nil {
		panic(err)
	}
	before, _ := smallbank.TotalMoney(db, cfg)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n1, n2 := (g*37+i)%cfg.Accounts, (g*53+i*7+1)%cfg.Accounts
				if n1 == n2 {
					n2 = (n2 + 1) % cfg.Accounts
				}
				db.RunRetry(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
					return smallbank.Amalgamate(tx, n1, n2)
				})
			}
		}(g)
	}
	wg.Wait()
	after, _ := smallbank.TotalMoney(db, cfg)
	fmt.Printf("800 concurrent amalgamations at Serializable SI: total money %d -> %d (conserved: %v)\n",
		before, after, before == after)
}
