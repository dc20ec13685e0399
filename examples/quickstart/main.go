// Quickstart: open a database, write and read at Serializable Snapshot
// Isolation, and watch the engine reject a write-skew anomaly that plain
// snapshot isolation would let through.
package main

import (
	"errors"
	"fmt"
	"log"

	"ssi/ssidb"
)

func main() {
	db := ssidb.Open(ssidb.Options{})

	// Basic use: transactions via Run (commit on nil, abort on error).
	err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		if err := tx.Put("accounts", []byte("alice"), []byte("100")); err != nil {
			return err
		}
		return tx.Put("accounts", []byte("bob"), []byte("100"))
	})
	if err != nil {
		log.Fatal(err)
	}

	err = db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		v, ok, err := tx.Get("accounts", []byte("alice"))
		fmt.Printf("alice = %s (found=%v, err=%v)\n", v, ok, err)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	// Concurrent transactions: a classic write skew. Each reads both
	// accounts and zeroes one of them; serially the second would see the
	// first's zero. Under SI both would commit; under Serializable SI one
	// aborts with ErrUnsafe.
	t1 := db.Begin(ssidb.SerializableSI)
	t2 := db.Begin(ssidb.SerializableSI)
	for _, tx := range []*ssidb.Txn{t1, t2} {
		tx.Get("accounts", []byte("alice"))
		tx.Get("accounts", []byte("bob"))
	}
	t1.Put("accounts", []byte("alice"), []byte("0"))
	t2.Put("accounts", []byte("bob"), []byte("0"))

	err1 := t1.Commit()
	err2 := t2.Commit()
	fmt.Printf("t1 commit: %v\n", err1)
	fmt.Printf("t2 commit: %v\n", err2)
	if errors.Is(err1, ssidb.ErrUnsafe) || errors.Is(err2, ssidb.ErrUnsafe) {
		fmt.Println("write skew detected and broken — the execution stays serializable")
	}

	// The aborted transaction simply retries; RunRetry automates that.
	err = db.RunRetry(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		return tx.Put("accounts", []byte("bob"), []byte("0"))
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("retry committed")
}
