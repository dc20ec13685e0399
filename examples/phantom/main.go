// Phantoms (thesis §2.5.2, §3.5): two registrars each count the enrolled
// students before admitting one more, against a capacity of  limit = current
// + 1. Row-level reads alone cannot see each other's *inserts*, so under
// plain SI both counts pass and the class ends up over capacity. The
// engine's next-key gap SIREAD locks detect the predicate conflict and
// Serializable SI aborts one registrar.
package main

import (
	"fmt"

	"ssi/ssidb"
)

const table = "enrolled"

func count(tx *ssidb.Txn) (int, error) {
	n := 0
	err := tx.Scan(table, []byte("class1/"), []byte("class1/~"), func(k, v []byte) bool {
		n++
		return true
	})
	return n, err
}

// enroll admits the student only if the class is below capacity.
func enroll(tx *ssidb.Txn, student string, capacity int) error {
	n, err := count(tx)
	if err != nil {
		return err
	}
	if n >= capacity {
		return fmt.Errorf("class full (%d/%d)", n, capacity)
	}
	return tx.Insert(table, []byte("class1/"+student), []byte("enrolled"))
}

func run(iso ssidb.Isolation) {
	db := ssidb.Open(ssidb.Options{})
	db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		return tx.Insert(table, []byte("class1/original"), []byte("enrolled"))
	})
	const capacity = 2 // one seat left

	t1 := db.Begin(iso)
	t2 := db.Begin(iso)
	e1 := enroll(t1, "alice", capacity)
	e2 := enroll(t2, "bob", capacity)
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

	var final int
	db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		var err error
		final, err = count(tx)
		return err
	})

	fmt.Printf("--- %v ---\n", iso)
	fmt.Printf("alice: %v\n", status(e1))
	fmt.Printf("bob:   %v\n", status(e2))
	fmt.Printf("enrolled: %d (capacity %d)\n", final, capacity)
	if final > capacity {
		fmt.Println("OVER CAPACITY — the phantom write skew committed")
	} else {
		fmt.Println("capacity respected")
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
	run(ssidb.SnapshotIsolation) // both admit: 3 enrolled in a class of 2
	run(ssidb.SerializableSI)    // the gap SIREAD locks catch it
}
