//go:build workcount

package server

import (
	"testing"

	"ssi/internal/workload/kvmix"
	"ssi/ssidb"
)

// TestWireWorkBudget counts the connection calls of the kv-wire transaction —
// 4 Gets and 2 Puts of existing rows at SerializableSI as one MsgTxn batch
// through Client.Do — in the workcount build:
//
//	go test -tags workcount -run WireWorkBudget ./internal/server
//
// The client frames the request in place and writes it with one Write on
// the connection itself; the response, a few hundred bytes, arrives as one
// segment on loopback and fits the client's 32 KiB reader, so reading it is
// one Read: 1 and 1. The server's reader takes the whole request in one Read
// the same way, and the session, finding nothing more buffered, flushes the
// response frame from its writer in one Write: 1 and 1. Its next Read, made
// before the next request arrives, is counted when the request does (Work).
func TestWireWorkBudget(t *testing.T) {
	db := ssidb.Open(ssidb.Options{LockShards: 8})
	if err := kvmix.Load(db, kvmix.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	c := dialT(t, startServer(t, Config{DB: db}))
	next, val := 0, []byte("w")
	ops := make([]Op, 6)
	batch := func() {
		for i := range ops {
			next++
			ops[i] = Op{Type: OpGet, Table: kvmix.Table, Key: kvmix.Key(next % 4096 * 2)}
			if i >= 4 {
				ops[i].Type, ops[i].Val = OpPut, val
			}
		}
		if _, err := c.Do(ssidb.SerializableSI, false, ops); err != nil {
			t.Fatal(err)
		}
	}
	batch()
	const n = 500
	before := ReadWork()
	for i := 0; i < n; i++ {
		batch()
	}
	got := ReadWork().Sub(before)
	t.Logf("%+v over %d batches", got, n)
	if want := (Work{ClientReads: n, ClientWrites: n, ServerReads: n, ServerWrites: n}); got != want {
		t.Errorf("%+v over %d batches, want %+v: one call each way on each side per batch", got, n, want)
	}
}
