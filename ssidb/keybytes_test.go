package ssidb

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestAbsentKeysSpendNoKeyBytes: a key without a row reaches its table's key
// arena only when a write inserts it. Reads and locking reads of absent keys
// at every isolation level, a declared read-only transaction's rejected write,
// and a write that times out on its gap lock before it installs spend no
// arena bytes: their lock names are heap copies that die with the locks.
func TestAbsentKeysSpendNoKeyBytes(t *testing.T) {
	db := Open(Options{LockWaitTimeout: 20 * time.Millisecond})
	keyBytes := func() int { return db.TableStats("t").KeyBytes }
	for _, k := range []string{"a", "z"} {
		if err := db.Run(SnapshotIsolation, func(tx *Txn) error { return tx.Put("t", []byte(k), []byte("v")) }); err != nil {
			t.Fatal(err)
		}
	}
	base := keyBytes()
	if base != 2*(1+1) {
		t.Fatalf("two 1-byte keys take %d arena bytes, want 4", base)
	}
	for _, iso := range []Isolation{SnapshotIsolation, SerializableSI, S2PL} {
		tx := db.Begin(iso)
		for i := range 50 {
			k := fmt.Appendf(nil, "m%d", i)
			if _, ok, err := tx.Get("t", k); ok || err != nil {
				t.Fatalf("%v: Get(%s) = %v, %v", iso, k, ok, err)
			}
			if _, ok, err := tx.GetForUpdate("t", k); ok || err != nil {
				t.Fatalf("%v: GetForUpdate(%s) = %v, %v", iso, k, ok, err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	ro := db.BeginTx(SerializableSI, TxnOptions{ReadOnly: true})
	if err := ro.Put("t", []byte("m-ro"), []byte("v")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("a read-only Put returned %v, want ErrReadOnly", err)
	}
	ro.Abort()

	// An S2PL scan holds the gap before "z" shared; an insert into it waits
	// for the exclusive gap lock and times out before the key enters the tree.
	scanner := db.Begin(S2PL)
	if err := scanner.Scan("t", []byte("a"), []byte("zz"), func(_, _ []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	writer := db.Begin(S2PL)
	if err := writer.Put("t", []byte("m-blocked"), []byte("v")); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("an insert into a scanned gap returned %v, want ErrLockTimeout", err)
	}
	if err := scanner.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := keyBytes(); n != base {
		t.Fatalf("reads and failed writes of absent keys spent %d arena bytes", n-base)
	}
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error { return tx.Put("t", []byte("m-blocked"), []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	if n, want := keyBytes(), base+1+len("m-blocked"); n != want {
		t.Fatalf("an insert left %d arena bytes, want %d", n, want)
	}
}
