package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ssi/internal/workload/smallbank"
	"ssi/ssidb"
)

// startServer spins up a server on an ephemeral loopback port and returns
// it with a cleanup that drains it.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = ssidb.Open(ssidb.Options{LockWaitTimeout: 2 * time.Second})
	}
	srv, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

func dialT(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Timeout = 10 * time.Second
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBatchTxnRoundTrip(t *testing.T) {
	srv := startServer(t, Config{})
	c := dialT(t, srv)

	res, err := c.Do(ssidb.SerializableSI, false, []Op{
		{Type: OpPut, Table: "t", Key: []byte("a"), Val: []byte("1")},
		{Type: OpPut, Table: "t", Key: []byte("b"), Val: []byte("2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("want 2 results, got %d", len(res))
	}

	res, err = c.Do(ssidb.SerializableSI, true, []Op{
		{Type: OpGet, Table: "t", Key: []byte("a")},
		{Type: OpGet, Table: "t", Key: []byte("missing")},
		{Type: OpScan, Table: "t"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Found || string(res[0].Val) != "1" {
		t.Fatalf("get a: %+v", res[0])
	}
	if res[1].Found {
		t.Fatalf("get missing: %+v", res[1])
	}
	if len(res[2].Rows) != 2 || string(res[2].Rows[0].Key) != "a" || string(res[2].Rows[1].Val) != "2" {
		t.Fatalf("scan: %+v", res[2].Rows)
	}
}

func TestInteractiveTxnAndConflictMapping(t *testing.T) {
	srv := startServer(t, Config{})
	c1 := dialT(t, srv)
	c2 := dialT(t, srv)

	if _, err := c1.Do(ssidb.SnapshotIsolation, false, []Op{
		{Type: OpPut, Table: "t", Key: []byte("k"), Val: []byte("0")},
	}); err != nil {
		t.Fatal(err)
	}

	// Two SI transactions racing a write on the same key: the second
	// committer must lose with a retryable First-Committer-Wins conflict
	// surfaced as a typed wire error.
	t1, err := c1.Begin(ssidb.SnapshotIsolation, false)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c2.Begin(ssidb.SnapshotIsolation, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := t1.Get("t", []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := t2.Get("t", []byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Put("t", []byte("k"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	err = t2.Put("t", []byte("k"), []byte("2"))
	if err == nil {
		err = t2.Commit()
	}
	if err == nil {
		t.Fatal("second writer committed; want first-committer-wins conflict")
	}
	if !errors.Is(err, ssidb.ErrWriteConflict) && !errors.Is(err, ssidb.ErrLockTimeout) {
		t.Fatalf("want write-conflict class error across the wire, got %v", err)
	}
	if !Retryable(err) {
		t.Fatalf("conflict must be retryable: %v", err)
	}
	if !ssidb.Retryable(err) {
		t.Fatalf("ssidb.Retryable must classify the unwrapped wire error: %v", err)
	}
}

func TestSmallbankProgramsOverTheWire(t *testing.T) {
	// The smallbank.Tx interface must be satisfied by the remote
	// transaction, running the paper's workload programs unmodified.
	srv := startServer(t, Config{})
	c := dialT(t, srv)

	var _ smallbank.Tx = (*RemoteTxn)(nil)

	db := srv.db
	if err := smallbank.Load(db, smallbank.Config{Accounts: 10, InitialBalance: 1000}); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin(ssidb.SerializableSI, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := smallbank.DepositChecking(tx, 3, 50); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, err = c.Begin(ssidb.SerializableSI, true)
	if err != nil {
		t.Fatal(err)
	}
	bal, err := smallbank.Balance(tx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if bal != 2050 {
		t.Fatalf("balance after deposit: want 2050, got %d", bal)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	srv := startServer(t, Config{})
	c := dialT(t, srv)

	// Insert on an existing key: statement-level, non-retryable, and the
	// interactive transaction survives it.
	if _, err := c.Do(ssidb.SnapshotIsolation, false, []Op{
		{Type: OpPut, Table: "t", Key: []byte("dup"), Val: []byte("x")},
	}); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin(ssidb.SnapshotIsolation, false)
	if err != nil {
		t.Fatal(err)
	}
	err = tx.Insert("t", []byte("dup"), []byte("y"))
	if !errors.Is(err, ssidb.ErrKeyExists) {
		t.Fatalf("want ErrKeyExists, got %v", err)
	}
	if Retryable(err) {
		t.Fatalf("key-exists must not be retryable")
	}
	if _, _, err := tx.Get("t", []byte("dup")); err != nil {
		t.Fatalf("transaction must survive statement-level error: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Write on a declared read-only transaction.
	ro, err := c.Begin(ssidb.SerializableSI, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.Put("t", []byte("w"), []byte("v")); !errors.Is(err, ssidb.ErrReadOnly) {
		t.Fatalf("want ErrReadOnly, got %v", err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}

	// Unknown transaction id.
	dead := &RemoteTxn{c: c, id: 99999}
	if _, _, err := dead.Get("t", []byte("x")); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("want ErrUnknownTxn, got %v", err)
	}
}

func TestMalformedClientDoesNotDisturbOthers(t *testing.T) {
	srv := startServer(t, Config{})
	good := dialT(t, srv)

	// A concurrent well-behaved session stays live throughout.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var goodErr error
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := []byte(fmt.Sprintf("k%d", i%16))
			if _, err := good.Do(ssidb.SerializableSI, false, []Op{
				{Type: OpPut, Table: "t", Key: key, Val: []byte("v")},
			}); err != nil && !Retryable(err) {
				goodErr = err
				return
			}
		}
	}()

	malformed := [][]byte{
		{},                           // empty frame: no header
		{MsgTxn},                     // truncated header
		{99, 0, 0, 0, 0},             // unknown message type
		{MsgTxn, 1, 0, 0, 0, 0xff},   // truncated txn header
		{MsgOp, 1, 0, 0, 0, 1, 2, 3}, // short txn id
	}
	for i, payload := range malformed {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeFramed(conn, append(newFrame(nil), payload...)); err != nil {
			t.Fatal(err)
		}
		// The bad session gets exactly one protocol error response, then EOF.
		resp, err := readFrame(conn, nil)
		if err != nil {
			t.Fatalf("case %d: no error response: %v", i, err)
		}
		cur := &cursor{b: resp}
		if status := cur.u8(); status != StatusErr {
			t.Fatalf("case %d: want StatusErr, got %d", i, status)
		}
		cur.u32() // reqID
		if code := cur.u8(); code != CodeProtocol {
			t.Fatalf("case %d: want CodeProtocol, got %d", i, code)
		}
		if _, err := readFrame(conn, nil); err == nil {
			t.Fatalf("case %d: connection not closed after protocol error", i)
		}
		conn.Close()
	}

	// Oversized frame: refused without reading the body.
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(conn, nil)
	if err != nil {
		t.Fatalf("no response to oversized frame: %v", err)
	}
	cur := &cursor{b: resp}
	cur.u8()
	cur.u32()
	if code := cur.u8(); code != CodeTooLarge {
		t.Fatalf("want CodeTooLarge, got %d", code)
	}
	conn.Close()

	close(stop)
	wg.Wait()
	if goodErr != nil {
		t.Fatalf("well-behaved session disturbed: %v", goodErr)
	}
	if st, _, _ := srv.StatsSnapshot(); st.ProtoErrors == 0 {
		t.Fatal("protocol errors not counted")
	}
}

func TestSlowClientCannotPinLocks(t *testing.T) {
	// A client that opens a transaction, takes a write lock, and goes
	// silent must be cut off at TxnTimeout, releasing its locks so other
	// sessions proceed.
	srv := startServer(t, Config{
		DB:         ssidb.Open(ssidb.Options{LockWaitTimeout: 5 * time.Second}),
		TxnTimeout: 300 * time.Millisecond,
	})
	slow := dialT(t, srv)
	fast := dialT(t, srv)

	tx, err := slow.Begin(ssidb.SnapshotIsolation, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("t", []byte("hot"), []byte("slow")); err != nil {
		t.Fatal(err)
	}
	// The slow client now holds the exclusive lock on "hot" and says
	// nothing more. The fast client's write must succeed once the server
	// times the slow session out and aborts its transaction.
	start := time.Now()
	if _, err := fast.Do(ssidb.SnapshotIsolation, false, []Op{
		{Type: OpPut, Table: "t", Key: []byte("hot"), Val: []byte("fast")},
	}); err != nil {
		t.Fatalf("fast writer blocked behind dead session: %v (after %v)", err, time.Since(start))
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("fast writer waited %v; slow session not cut at TxnTimeout", waited)
	}
}

func TestAdmissionQueueAndRefusal(t *testing.T) {
	srv := startServer(t, Config{
		MPL:          1,
		QueueDepth:   1,
		QueueTimeout: 500 * time.Millisecond,
	})

	// Fill the one slot with an open interactive transaction.
	holder := dialT(t, srv)
	htx, err := holder.Begin(ssidb.SnapshotIsolation, false)
	if err != nil {
		t.Fatal(err)
	}

	// One waiter occupies the queue and times out.
	waiter := dialT(t, srv)
	done := make(chan error, 1)
	go func() {
		_, err := waiter.Do(ssidb.SnapshotIsolation, false, []Op{
			{Type: OpPut, Table: "t", Key: []byte("q"), Val: []byte("v")},
		})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the waiter enter the queue

	// Queue full: a third transaction is refused immediately.
	third := dialT(t, srv)
	start := time.Now()
	_, err = third.Do(ssidb.SnapshotIsolation, false, []Op{
		{Type: OpPut, Table: "t", Key: []byte("r"), Val: []byte("v")},
	})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if !Retryable(err) {
		t.Fatal("queue-full must be retryable")
	}
	if time.Since(start) > 300*time.Millisecond {
		t.Fatalf("queue-full refusal not fast: %v", time.Since(start))
	}
	if err := <-done; !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("want ErrQueueTimeout for the queued waiter, got %v", err)
	}

	// Release the slot: admissions flow again.
	if err := htx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := third.Do(ssidb.SnapshotIsolation, false, []Op{
		{Type: OpPut, Table: "t", Key: []byte("r"), Val: []byte("v")},
	}); err != nil {
		t.Fatalf("admission after release: %v", err)
	}

	_, adm, _ := srv.StatsSnapshot()
	if adm.RefusedFull == 0 || adm.RefusedWait == 0 {
		t.Fatalf("admission counters not recorded: %+v", adm)
	}
}

// TestUncappedAdmissionsCounted: a server without an MPL cap admits every
// transaction at once, and still counts each one.
func TestUncappedAdmissionsCounted(t *testing.T) {
	const n = 5
	srv := startServer(t, Config{})
	c := dialT(t, srv)
	for i := 0; i < n; i++ {
		if _, err := c.Do(ssidb.SnapshotIsolation, false, []Op{
			{Type: OpPut, Table: "t", Key: []byte{byte(i)}, Val: []byte("v")},
		}); err != nil {
			t.Fatal(err)
		}
	}
	_, adm, _ := srv.StatsSnapshot()
	if adm.MPL != 0 || adm.Admitted != n || adm.Queued != 0 {
		t.Fatalf("after %d batches on an uncapped server: %+v, want Admitted %d and Queued 0", n, adm, n)
	}
}

func TestConnectionCapFastRefusal(t *testing.T) {
	srv := startServer(t, Config{MaxConns: 1})
	keep := dialT(t, srv)
	if err := keep.Ping(); err != nil {
		t.Fatal(err)
	}

	over, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	over.Timeout = 5 * time.Second
	err = over.Ping()
	if !errors.Is(err, ErrConnLimit) {
		t.Fatalf("want ErrConnLimit, got %v", err)
	}
	if err := keep.Ping(); err != nil {
		t.Fatalf("established session must survive refusals: %v", err)
	}
}

func TestDrainFinishesInFlightAndRefusesNew(t *testing.T) {
	srv := startServer(t, Config{})
	c := dialT(t, srv)

	// Open a transaction with work in it, then drain.
	tx, err := c.Begin(ssidb.SerializableSI, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("t", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { drained <- srv.Shutdown(ctx) }()
	time.Sleep(50 * time.Millisecond)

	// New connections must be refused at the TCP level.
	if probe, err := Dial(srv.Addr().String()); err == nil {
		probe.Timeout = time.Second
		if err := probe.Ping(); err == nil {
			t.Fatal("new connection served during drain")
		}
		probe.Close()
	}

	// The open transaction finishes: its commit succeeds mid-drain.
	if err := tx.Commit(); err != nil {
		t.Fatalf("in-flight commit during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain did not complete cleanly: %v", err)
	}

	// The write is visible on the engine.
	var got []byte
	err = srv.db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		v, _, err := tx.Get("t", []byte("k"))
		got = v
		return err
	})
	if err != nil || string(got) != "v" {
		t.Fatalf("drained commit lost: %q %v", got, err)
	}
}

func TestDrainRefusesNewTxnOnLiveSession(t *testing.T) {
	srv := startServer(t, Config{})
	c := dialT(t, srv)
	tx, err := c.Begin(ssidb.SnapshotIsolation, false)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go srv.Shutdown(ctx)
	time.Sleep(50 * time.Millisecond)

	// The session is still alive (it holds a transaction), but new
	// transactions on it are refused with the shutdown code.
	if _, err := c.Do(ssidb.SnapshotIsolation, false, []Op{
		{Type: OpPut, Table: "t", Key: []byte("x"), Val: []byte("y")},
	}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("want ErrShutdown for new txn during drain, got %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("open txn must still commit: %v", err)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := startServer(t, Config{MPL: 4})
	c := dialT(t, srv)
	if _, err := c.Do(ssidb.SnapshotIsolation, false, []Op{
		{Type: OpPut, Table: "t", Key: []byte("k"), Val: []byte("v")},
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Server    Stats
		Admission AdmissionStats
		DB        ssidb.Stats
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, raw)
	}
	if doc.Admission.MPL != 4 || doc.Server.TxnsServed == 0 || doc.Server.Conns == 0 {
		t.Fatalf("stats content: %+v", doc)
	}
	if doc.DB.WALDegraded {
		t.Fatalf("healthy server reports degraded WAL: %+v", doc.DB)
	}
}

func TestPipelinedBatches(t *testing.T) {
	// Raw pipelining: several requests written before any response is
	// read; responses come back in order with matching ids.
	srv := startServer(t, Config{})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	const n = 8
	for i := 0; i < n; i++ {
		frame := newFrame(nil)
		frame = append(frame, MsgTxn)
		frame = appendU32(frame, uint32(i+1))
		frame = append(frame, byte(ssidb.SnapshotIsolation), 0)
		frame = appendU16(frame, 1)
		frame = appendOp(frame, Op{
			Type: OpPut, Table: "t",
			Key: []byte(fmt.Sprintf("p%d", i)), Val: []byte("v"),
		})
		if err := writeFramed(conn, frame); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	for i := 0; i < n; i++ {
		resp, err := readFrame(conn, buf)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		buf = resp[:cap(resp)]
		cur := &cursor{b: resp}
		if status := cur.u8(); status != StatusOK {
			t.Fatalf("response %d: status %d", i, status)
		}
		if id := cur.u32(); id != uint32(i+1) {
			t.Fatalf("response %d: id %d", i, id)
		}
	}
}

func TestOversizedBatchResponseDoesNotCommit(t *testing.T) {
	srv := startServer(t, Config{})
	c := dialT(t, srv)

	// More than MaxFrame of rows, so a full scan cannot be answered. The
	// first 16 fill the response to exactly MaxFrame (5 header bytes, a
	// 4-byte row count, 9 bytes of lengths and key per row), so a scan that
	// stopped there would answer with a truncated result instead of failing.
	big := make([]byte, 64<<10)
	if err := srv.db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		for i := 0; i < 20; i++ {
			val := big
			if i == 15 {
				val = big[:MaxFrame-9-16*9-15*len(big)]
			}
			if err := tx.Put("big", []byte(fmt.Sprintf("r%02d", i)), val); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Do(ssidb.SerializableSI, false, []Op{
		{Type: OpPut, Table: "t", Key: []byte("marker"), Val: []byte("x")},
		{Type: OpScan, Table: "big"},
	})
	if err == nil {
		t.Fatal("a batch whose response exceeds MaxFrame succeeded")
	}
	err = srv.db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		if _, ok, err := tx.Get("t", []byte("marker")); err != nil || ok {
			t.Errorf("the failed batch's write is visible (found=%v, err=%v)", ok, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("session unusable after the refused response: %v", err)
	}
}

func TestClientRefusesUnencodableRequests(t *testing.T) {
	srv := startServer(t, Config{})
	c := dialT(t, srv)
	long := make([]byte, 70_000)
	ping := func(what string) {
		t.Helper()
		if err := c.Ping(); err != nil {
			t.Fatalf("after %s: connection unusable: %v", what, err)
		}
	}

	for _, tc := range []struct {
		what string
		ops  []Op
	}{
		{"a 70 000-byte key", []Op{{Type: OpGet, Table: "t", Key: long}}},
		{"a 70 000-byte table name", []Op{{Type: OpGet, Table: string(long), Key: []byte("k")}}},
		{"a 70 000-byte scan bound", []Op{{Type: OpScan, Table: "t", From: long}}},
		{"65 536 ops", make([]Op, 65_536)},
		{"a request above MaxFrame", []Op{{Type: OpPut, Table: "t", Key: []byte("k"), Val: make([]byte, MaxFrame)}}},
	} {
		if _, err := c.Do(ssidb.SerializableSI, false, tc.ops); !errors.Is(err, ErrRequestTooLarge) {
			t.Errorf("%s: want ErrRequestTooLarge, got %v", tc.what, err)
		}
		ping(tc.what)
	}

	// An interactive statement the wire cannot carry leaves its transaction
	// open: nothing reached the server.
	tx, err := c.Begin(ssidb.SerializableSI, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("t", long, []byte("v")); !errors.Is(err, ErrRequestTooLarge) {
		t.Fatalf("RemoteTxn.Put of a 70 000-byte key: want ErrRequestTooLarge, got %v", err)
	}
	ping("a refused RemoteTxn.Put")
	if err := tx.Put("t", []byte("k"), make([]byte, MaxFrame)); !errors.Is(err, ErrRequestTooLarge) {
		t.Fatalf("RemoteTxn.Put of a MaxFrame value: want ErrRequestTooLarge, got %v", err)
	}
	ping("a refused RemoteTxn.Put of a MaxFrame value")
	if err := tx.Put("t", []byte("k"), []byte("v")); err != nil {
		t.Fatalf("transaction unusable after a refused statement: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTableCacheAndResultLifetimes(t *testing.T) {
	srv := startServer(t, Config{})
	c := dialT(t, srv)

	// One batch writes the same key of a, b and a again: every write lands in
	// its own table.
	if _, err := c.Do(ssidb.SerializableSI, false, []Op{
		{Type: OpPut, Table: "a", Key: []byte("k"), Val: []byte("a1")},
		{Type: OpPut, Table: "b", Key: []byte("k"), Val: []byte("b1")},
		{Type: OpPut, Table: "a", Key: []byte("j"), Val: []byte("a2")},
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	res, err := c.Do(ssidb.SerializableSI, true, []Op{
		{Type: OpGet, Table: "a", Key: []byte("k")},
		{Type: OpGet, Table: "b", Key: []byte("k")},
		{Type: OpGet, Table: "a", Key: []byte("j")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Found || string(r.Val) != want[i] {
			t.Errorf("batch Get %d: found=%v %q, want %q", i, r.Found, r.Val, want[i])
		}
	}
	if err := srv.db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		if _, ok, err := tx.Get("b", []byte("j")); err != nil || ok {
			t.Errorf("a's key j found in b (found=%v, err=%v)", ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// The same alternation through an interactive transaction. A RemoteTxn
	// value is the caller's: it survives the round trips that follow it.
	tx, err := c.Begin(ssidb.SerializableSI, false)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, g := range []struct{ table, key string }{{"a", "k"}, {"b", "k"}, {"a", "j"}} {
		v, ok, err := tx.Get(g.table, []byte(g.key))
		if err != nil || !ok {
			t.Fatalf("Get %s/%s: found=%v, err=%v", g.table, g.key, ok, err)
		}
		got = append(got, string(v))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("interactive Gets over a, b, a: %q, want %q", got, want)
	}
	first, _, err := tx.Get("a", []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := tx.Get("b", []byte("k")); err != nil {
			t.Fatal(err)
		}
	}
	if string(first) != "a1" {
		t.Errorf("a RemoteTxn.Get value changed under three later round trips: %q, want %q", first, "a1")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
