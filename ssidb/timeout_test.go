package ssidb

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestLockWaitTimeoutAborts proves the bounded-wait contract end to end: a
// transaction blocked behind a holder that never finishes fails with
// ErrLockTimeout once Options.LockWaitTimeout elapses, is rolled back, and
// leaves the stuck holder's transaction intact.
func TestLockWaitTimeoutAborts(t *testing.T) {
	db := Open(Options{LockWaitTimeout: 50 * time.Millisecond})
	holder := db.Begin(S2PL)
	if err := holder.Put("t", []byte("k"), []byte("held")); err != nil {
		t.Fatal(err)
	}

	// The holder now sits on the row lock indefinitely; a second writer
	// must not hang.
	blocked := db.Begin(S2PL)
	err := blocked.Put("t", []byte("k"), []byte("blocked"))
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("blocked write returned %v, want ErrLockTimeout", err)
	}
	if !Retryable(err) {
		t.Fatal("ErrLockTimeout must be an abort-class (retryable) error")
	}
	// The timed-out transaction is already rolled back.
	if _, _, err := blocked.Get("t", []byte("k")); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("operation after timeout returned %v, want ErrTxnDone", err)
	}

	// The holder was never a deadlock victim and commits normally.
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Run(S2PL, func(tx *Txn) error {
		v, ok, err := tx.Get("t", []byte("k"))
		if err != nil {
			return err
		}
		if !ok || string(v) != "held" {
			t.Fatalf("value after timeout episode = %q, %v", v, ok)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	st := db.StatsSnapshot()
	if st.LockTimeouts != 1 {
		t.Fatalf("LockTimeouts = %d, want 1", st.LockTimeouts)
	}
	if st.LockedKeys != 0 || st.LockOwners != 0 {
		t.Fatalf("lock table not drained after timeout episode: %+v", st)
	}
}

// TestNoTimeoutByDefault pins that the zero value waits: a held lock simply
// blocks the contender until release, with no spurious ErrLockTimeout.
func TestNoTimeoutByDefault(t *testing.T) {
	db := Open(Options{})
	holder := db.Begin(S2PL)
	if err := holder.Put("t", []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var blockedErr error
	go func() {
		defer wg.Done()
		blockedErr = db.Run(S2PL, func(tx *Txn) error {
			return tx.Put("t", []byte("k"), []byte("v2"))
		})
	}()
	time.Sleep(100 * time.Millisecond) // long enough to park
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if blockedErr != nil {
		t.Fatalf("blocked write failed: %v", blockedErr)
	}
}

// TestWaitStatsSurfaceContention checks that a real blocked wait shows up
// in the DB-level wait instrumentation.
func TestWaitStatsSurfaceContention(t *testing.T) {
	db := Open(Options{})
	holder := db.Begin(S2PL)
	if err := holder.Put("t", []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- db.Run(S2PL, func(tx *Txn) error {
			return tx.Put("t", []byte("k"), []byte("v2"))
		})
	}()
	deadline := time.Now().Add(2 * time.Second)
	for db.StatsSnapshot().LockParks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("contender never parked")
		}
		time.Sleep(time.Millisecond)
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := db.StatsSnapshot()
	if st.LockWaits == 0 || st.LockParks == 0 || st.LockWakeups == 0 || st.LockWaitTime <= 0 {
		t.Fatalf("wait stats did not register the blocked acquire: %+v", st)
	}
}
