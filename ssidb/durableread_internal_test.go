package ssidb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssi/internal/wal"
)

// gatedDevice is a WAL device whose Sync, while the gate is shut, announces
// itself on entered and waits for release: the test decides when a batch
// becomes durable.
type gatedDevice struct {
	wal.Device
	shut    atomic.Bool
	entered chan struct{}
	release chan struct{}
	synced  atomic.Int64 // gated syncs that have returned
}

func (d *gatedDevice) Sync() error {
	if d.shut.Load() {
		d.entered <- struct{}{}
		<-d.release
		defer d.synced.Add(1)
	}
	return d.Device.Sync()
}

// TestCommitWaitsForWhatItRead: a transaction that reads a write whose batch
// is not yet durable does not commit before it is, even when it appends no
// record of its own — declared read-only, or a read-write transaction whose
// write set stayed empty. At SI and at SSI the
// read sees the write as soon as it is published, before its fsync, so the
// commit waits on the log; at S2PL the read waits on the writer's exclusive
// lock, which the writer holds until its batch is durable.
func TestCommitWaitsForWhatItRead(t *testing.T) {
	for _, c := range []struct {
		iso      Isolation
		readOnly bool
	}{
		{SnapshotIsolation, true},
		{SnapshotIsolation, false},
		{SerializableSI, true},
		{SerializableSI, false},
		{S2PL, true},
	} {
		kind := "empty-write-set"
		if c.readOnly {
			kind = "read-only"
		}
		t.Run(fmt.Sprintf("%v/%s", c.iso, kind), func(t *testing.T) {
			dev := &gatedDevice{entered: make(chan struct{}), release: make(chan struct{})}
			db, err := open(t.TempDir(), Options{}, func(d wal.Device) wal.Device { dev.Device = d; return dev })
			if err != nil {
				t.Fatal(err)
			}
			var once sync.Once
			unblock := func() { // let the gated Sync, and every later one, through
				once.Do(func() {
					dev.shut.Store(false)
					dev.release <- struct{}{}
				})
			}
			defer db.Close()
			put := func(v string) error {
				return db.Run(SnapshotIsolation, func(tx *Txn) error { return tx.Put("t", []byte("k"), []byte(v)) })
			}
			if err := put("v0"); err != nil {
				t.Fatal(err)
			}

			dev.shut.Store(true)
			wrote := make(chan error, 1)
			go func() { wrote <- put("v1") }()
			<-dev.entered // v1 is published, and its batch is in a Sync that has not returned
			defer unblock()

			type outcome struct {
				val    string
				err    error
				synced int64
			}
			read := make(chan outcome, 1)
			go func() {
				tx := db.BeginTx(c.iso, TxnOptions{ReadOnly: c.readOnly})
				v, _, err := tx.Get("t", []byte("k"))
				if err == nil {
					err = tx.Commit()
				}
				read <- outcome{string(v), err, dev.synced.Load()}
			}()

			// Wait until the reader is parked — on the log (SI, SSI) or on the
			// writer's lock (S2PL) — failing if it returns first.
			parked := func() bool {
				if c.iso == S2PL {
					return db.StatsSnapshot().LockWaits > 0
				}
				return db.log.StatsSnapshot().Waiting >= 2 // the writer and the reader
			}
			for deadline := time.Now().Add(10 * time.Second); !parked(); time.Sleep(time.Millisecond) {
				select {
				case o := <-read:
					t.Fatalf("the reader returned (read %q, %v) while the write it read was not durable", o.val, o.err)
				default:
				}
				if time.Now().After(deadline) {
					t.Fatal("the reader neither returned nor waited")
				}
			}

			unblock()
			if err := <-wrote; err != nil {
				t.Fatal(err)
			}
			o := <-read
			if o.err != nil || o.val != "v1" || o.synced != 1 {
				t.Fatalf("reader read %q and committed with %v after %d syncs, want v1, nil, 1", o.val, o.err, o.synced)
			}
		})
	}
}
