// The doctors-on-call example (thesis Example 1): a hospital requires at
// least one doctor on duty per shift. The "go off duty" transaction checks
// the invariant before committing — yet under plain snapshot isolation two
// concurrent runs each see the other doctor still on duty and the shift ends
// up unstaffed. Serializable SI detects the write skew and aborts one.
package main

import (
	"fmt"

	"ssi/ssidb"
)

const table = "duties"

func onDutyCount(tx *ssidb.Txn, shift string) (int, error) {
	n := 0
	prefix := []byte(shift + "/")
	end := []byte(shift + "0") // '0' = '/'+1
	err := tx.Scan(table, prefix, end, func(k, v []byte) bool {
		if string(v) == "on duty" {
			n++
		}
		return true
	})
	return n, err
}

// goOffDuty sets the doctor to reserve status, then verifies the invariant —
// exactly the parametrised program of Example 1.
func goOffDuty(tx *ssidb.Txn, shift, doctor string) error {
	if err := tx.Put(table, []byte(shift+"/"+doctor), []byte("reserve")); err != nil {
		return err
	}
	n, err := onDutyCount(tx, shift)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("refusing: no doctor would be on duty")
	}
	return nil
}

func run(iso ssidb.Isolation) {
	db := ssidb.Open(ssidb.Options{})
	db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		tx.Put(table, []byte("night/alice"), []byte("on duty"))
		tx.Put(table, []byte("night/bob"), []byte("on duty"))
		return nil
	})

	t1 := db.Begin(iso)
	t2 := db.Begin(iso)
	e1 := goOffDuty(t1, "night", "alice")
	e2 := goOffDuty(t2, "night", "bob")
	if e1 == nil {
		e1 = t1.Commit()
	} else {
		t1.Abort()
	}
	if e2 == nil {
		e2 = t2.Commit()
	} else {
		t2.Abort()
	}

	var onDuty int
	db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		var err error
		onDuty, err = onDutyCount(tx, "night")
		return err
	})

	fmt.Printf("--- %v ---\n", iso)
	fmt.Printf("alice's transaction: %v\n", errOr(e1, "committed"))
	fmt.Printf("bob's transaction:   %v\n", errOr(e2, "committed"))
	fmt.Printf("doctors on duty tonight: %d\n", onDuty)
	if onDuty == 0 {
		fmt.Println("INVARIANT VIOLATED — the night shift is unstaffed!")
	} else {
		fmt.Println("invariant holds")
	}
	fmt.Println()
}

func errOr(err error, ok string) string {
	if err == nil {
		return ok
	}
	return err.Error()
}

func main() {
	run(ssidb.SnapshotIsolation) // both commit; nobody on duty
	run(ssidb.SerializableSI)    // one aborts; invariant preserved
}
