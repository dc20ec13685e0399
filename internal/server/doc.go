// Package server is the ssiserver network front end: a TCP server exposing
// the ssidb engine to remote clients with request pipelining, a batched
// transaction API, MPL admission control, and fault-tolerant sessions. The
// binary entry point is cmd/ssiserver (a one-line wrapper around Main); the
// matching client is in client.go and drives both ssibench's remote rows
// (`ssibench -run remote-kvmix -server addr`) and examples/netclient.
//
// # Wire protocol
//
// Everything on the wire, both directions, is a length-prefixed frame:
//
//	u32 LE payloadLen | payload        (payloadLen ≤ MaxFrame = 1 MiB)
//
// All integers on the wire are little-endian; only the stored cells OpAdd
// manipulates are big-endian i64, so cell bytes sort numerically. A
// request payload is
//
//	u8 msgType | u32 reqID | body
//
// and every request produces exactly one response frame
//
//	u8 status | u32 reqID | body
//
// echoing the request's reqID. Clients may pipeline: requests are processed
// and answered strictly in order, so responses can be matched positionally
// or by id. Message types:
//
//	MsgTxn    (1)  u8 iso | u8 flags | u16 nops | nops ops.
//	               Runs a whole transaction — begin, every op, commit — in
//	               one round trip. Response: the ops' results, concatenated.
//	MsgPing   (2)  empty. Liveness probe; empty response.
//	MsgStats  (3)  empty. Response: JSON {Server, Admission, DB} snapshot.
//	MsgBegin  (4)  u8 iso | u8 flags. Opens an interactive transaction.
//	               Response: u64 txnID (scoped to this connection).
//	MsgOp     (5)  u64 txnID | op. One operation in an open transaction.
//	MsgCommit (6)  u64 txnID. Commits; responds only after the WAL fsync.
//	MsgAbort  (7)  u64 txnID. Rolls back; empty response.
//
// iso is the ssidb.Isolation value (0 = SI, 1 = SerializableSI, 2 = S2PL);
// flags bit0 (FlagReadOnly) declares the transaction read-only, enabling
// the engine's SIREAD-free read optimisations. Operation encodings and
// their result encodings are documented on the Op* constants in proto.go.
//
// An error response (status 1) carries
//
//	u8 code | u8 flags | u16 msgLen | msg
//
// where code is one of the Code* constants and flags bit0 (RetryableFlag)
// reports that the transaction was cleanly rolled back — or never admitted
// — and an identical retry on a fresh transaction may succeed: the abort
// classes of the paper (unsafe, write-conflict, deadlock, lock-timeout)
// plus the admission refusals (queue-full, queue-timeout) and the
// connection cap. The client surfaces these as *ProtoError, whose Unwrap
// maps the code back to the matching ssidb/server sentinel, so errors.Is
// and ssidb.Retryable classify wire errors exactly like local ones. One
// table, wireErrors in proto.go, gives each code its sentinel and retryable
// bit in both directions. A commit whose log write or fsync failed is
// CodeWALDegraded, not retryable: its effects are published in memory and
// its durability is unknown. CodeProtocol, CodeTooLarge and CodeInternal
// unwrap to nil.
// Responses with reqID 0 are connection-level errors (connection refused at
// MaxConns, unparseable request header).
//
// # Allocation
//
// A MsgTxn batch allocates only what the engine keeps: a copy of each
// written value (OpPut, OpInsert, OpAdd's cell), because the version store
// retains the slice it is given and the request frame the value arrived in
// is overwritten by the next request. Everything else is reused per
// connection. Both sides build each frame in place after a reserved length
// prefix and send it with one Write, and read each frame into one buffer.
// The server converts a table name into the string the engine takes only
// when it differs from the previous op's: a one-entry cache, which no
// sequence of names can grow. On the client, Do's results and the bytes in
// them alias the connection's response buffer and are valid until the next
// call on that Client; RemoteTxn copies what it returns, as its Get mirrors
// ssidb.Txn.Get. TestWireTxnAllocBudget holds a 4-read, 2-write batch to
// the embedded transaction's allocations plus the two values.
//
// # Session lifecycle and fault tolerance
//
// Each connection is served by one goroutine owning all of its state —
// buffers, the open-transaction table — so the request path is lock-free
// outside the engine. Robustness against misbehaving clients:
//
//   - A malformed or oversized frame poisons the stream (it cannot be
//     resynchronised): the session answers with CodeProtocol/CodeTooLarge
//     and closes. Other sessions are unaffected.
//   - Read deadlines distinguish idle from wedged: a session with no open
//     transaction may idle for IdleTimeout, but one holding an open
//     transaction — which pins locks, SIREAD entries and an admission
//     slot — gets only TxnTimeout of silence before the connection is cut
//     and its transactions aborted, releasing everything.
//   - Write deadlines (WriteTimeout) bound every flush, so a client that
//     stops reading cannot wedge a session goroutine.
//   - Session teardown, on any exit path, aborts open transactions and
//     returns their admission slots.
//
// # Admission control and backpressure
//
// The server implements the paper's §6 thrashing fix at the front door:
// beyond a saturation MPL, admitting more concurrent transactions reduces
// throughput, so Config.MPL caps concurrently executing transactions
// (batch and interactive alike — an interactive transaction holds its slot
// from MsgBegin to MsgCommit/MsgAbort). Excess transactions wait in a
// bounded FIFO queue (Config.QueueDepth, default 4×MPL) up to
// Config.QueueTimeout; past either bound they are refused immediately with
// CodeQueueFull/CodeQueueTimeout — both retryable, so a well-behaved
// client backs off with full information instead of adding load. MPL 0
// disables the controller (the uncapped baseline). Connections beyond
// Config.MaxConns are fast-refused with one CodeConnLimit frame rather
// than left hanging in the accept backlog.
//
// Sizing for interactive workloads: because an interactive transaction
// holds its slot across client round trips, the MPL must budget for
// conversation latency, not just engine work, and QueueDepth should be at
// least the expected connection count — a queue shallower than the steady
// offered load converts it into a refusal storm (measured in CHANGES.md:
// MPL 16 with the default 4×MPL queue collapsed the 256-connection
// SmallBank mix, while MPL 64 with a 256-deep queue beat uncapped by 21%
// with p99 down 39%).
//
// # Graceful drain
//
// Shutdown (SIGTERM/SIGINT in Main) closes the listener, wakes and closes
// idle sessions, refuses new transactions with CodeShutdown, lets open
// transactions finish, and force-closes whatever remains when its context
// expires. Main exits 0 after a clean drain and WAL close. The re-exec
// tests in crash_test.go pin both contracts: SIGTERM mid-load exits 0 with
// every in-flight commit durable, and kill -9 mid-load recovers to a
// sercheck-clean, money-conserving prefix on reopen.
package server
