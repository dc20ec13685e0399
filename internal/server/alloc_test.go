package server

import (
	"math"
	"runtime"
	"testing"

	"ssi/internal/raceflag"
	"ssi/internal/workload/kvmix"
	"ssi/ssidb"
)

// allocsPerCall returns the mallocs and bytes one call of f costs, counted
// process-wide (so the server's session goroutine is included) as the
// minimum over five batches of 100 calls. The minimum drops a batch that
// happened to meet a sync.Pool miss after a goroutine migrated, which
// testing.AllocsPerRun would average in; a path that really allocates per
// call shows in every batch.
func allocsPerCall(f func()) (allocs, bytes float64) {
	const batches, calls = 5, 100
	allocs, bytes = math.Inf(1), math.Inf(1)
	for b := 0; b < batches; b++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/calls)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/calls)
	}
	return allocs, bytes
}

// TestWireTxnAllocBudget holds the batched round trip to what the engine
// keeps. The repository benchmark's kv-wire transaction — 4 OpGets and 2
// OpPuts over existing kvmix rows in one MsgTxn through Client.Do — may
// allocate what the same body costs through the embedded RunRetry plus two
// allocations and 16 B: the copies of the two written values, which the
// version store keeps while the request frame they arrived in is reused —
// 5 allocations and 160 B in all, 40 B under the 200 it cost while the
// embedded transaction's lock owner state was an object of its own and its
// handle 32 B. The client's frames, cursor and results, the server's frames
// and its table name are all reused.
//
// The interactive path copies by contract (RemoteTxn.Get returns a value the
// caller owns, as ssidb.Txn.Get does): a Begin, one Get, one Put and a
// Commit over MsgBegin/MsgOp/MsgCommit may cost the embedded Get + Put plus
// three allocations and 40 B: the 24-byte RemoteTxn, the Get's copy and the
// Put's value — 6 allocations and 184 B in all (224 before).
func TestWireTxnAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under -race; the budgets assume it does not")
	}
	db := ssidb.Open(ssidb.Options{LockShards: 8})
	if err := kvmix.Load(db, kvmix.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Config{DB: db})
	c := dialT(t, srv)
	// Keys of existing rows, built once so that neither side allocates one.
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = kvmix.Key(i * 2)
	}
	next := 0
	key := func() []byte { next++; return keys[next%len(keys)] }
	val := []byte("w")

	ops := make([]Op, 6)
	fill := func() {
		for i := range ops {
			ops[i] = Op{Type: OpGet, Table: kvmix.Table, Key: key()}
			if i >= 4 {
				ops[i].Type, ops[i].Val = OpPut, val
			}
		}
	}
	body := func(tx *ssidb.Txn) error {
		for _, op := range ops {
			var err error
			if op.Type == OpGet {
				_, _, err = tx.Get(op.Table, op.Key)
			} else {
				err = tx.Put(op.Table, op.Key, op.Val)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	embedded := func() {
		fill()
		if err := db.RunRetry(ssidb.SerializableSI, body); err != nil {
			t.Fatal(err)
		}
	}
	wire := func() {
		fill()
		if _, err := c.Do(ssidb.SerializableSI, false, ops); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ { // warm the pools and the store's free lists
		embedded()
		wire()
	}
	embAllocs, embBytes := allocsPerCall(embedded)
	allocs, bytes := allocsPerCall(wire)
	t.Logf("4 Gets + 2 Puts: embedded %.1f allocs/op, %.0f B/op; Client.Do %.1f allocs/op, %.0f B/op", embAllocs, embBytes, allocs, bytes)
	if allocs > embAllocs+2 || bytes > embBytes+16 || allocs > 5 || bytes > 160 { // measured 5.0 and 160 beside 3.0 and 144
		t.Errorf("Client.Do of 4 Gets + 2 Puts: %.1f allocs/op, %.0f B/op, budget the embedded %.1f and %.0f plus 2 and 16 B, at most 5 and 160 B", allocs, bytes, embAllocs, embBytes)
	}

	ops = ops[:2]
	interactive := func() {
		tx, err := c.Begin(ssidb.SerializableSI, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tx.Get(kvmix.Table, key()); err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(kvmix.Table, key(), val); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	embedded = func() {
		ops[0] = Op{Type: OpGet, Table: kvmix.Table, Key: key()}
		ops[1] = Op{Type: OpPut, Table: kvmix.Table, Key: key(), Val: val}
		if err := db.RunRetry(ssidb.SerializableSI, body); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		embedded()
		interactive()
	}
	embAllocs, embBytes = allocsPerCall(embedded)
	allocs, bytes = allocsPerCall(interactive)
	t.Logf("Get + Put: embedded %.1f allocs/op, %.0f B/op; RemoteTxn %.1f allocs/op, %.0f B/op", embAllocs, embBytes, allocs, bytes)
	if allocs > embAllocs+3 || bytes > embBytes+40 || allocs > 6 || bytes > 184 { // measured 6.0 and 184 beside 3.0 and 144
		t.Errorf("RemoteTxn Begin, Get, Put, Commit: %.1f allocs/op, %.0f B/op, budget the embedded %.1f and %.0f plus 3 and 40 B, at most 6 and 184 B", allocs, bytes, embAllocs, embBytes)
	}
}
