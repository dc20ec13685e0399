// Package ssi is the root of a from-scratch Go reproduction of
// "Serializable Isolation for Snapshot Databases" (Cahill, Fekete, Röhm;
// SIGMOD 2008 / Cahill's 2009 thesis).
//
// The public embedded-database API lives in package ssidb. The paper's
// algorithm (Serializable Snapshot Isolation) and all of its substrates —
// lock manager, MVCC store, page-structured B+tree, group-commit log — are
// implemented under internal/. The three benchmarks the paper evaluates
// (SmallBank, sibench, TPC-C++) live under internal/workload, and every
// figure of the paper's evaluation chapter is a row of the scenario table
// (internal/scenario) that cmd/ssibench measures: `ssibench -run fig6.1`.
//
// # The transaction contract
//
// The paper builds Serializable SI twice — on InnoDB's row and next-key gap
// locks and on Berkeley DB's page locks — but the algorithm (Figures
// 3.4-3.7) is the same in both, and ssidb/txn.go has one body per operation
// accordingly. The isolation level contributes two facts to a body: the lock
// mode its reads take (writes are Exclusive everywhere) and whether the
// rivals found on its locks are recorded as rw-conflicts (SerializableSI
// only). The granularity contributes the lock targets and the unit
// First-Committer-Wins compares (ssidb/locks_row.go, ssidb/locks_page.go).
// For an operation on key k:
//
//	operation          lock mode           rivals marked    lock targets, row            lock targets, page             FCW unit                  errors [7]
//	                   SI / SSI / S2PL     (SSI only)                                                                                              stmt | txn
//	Get [9]            none / SIREAD /     as reader [1]    row k [8]; at SSI, if k has  every page on the path to k    -                         - | U D
//	                   Shared [2]                           a row, its reader word [1]
//	GetForUpdate [9]   Exclusive; at SSI   none [3]         row k [8], read once         leaf of k Exclusive, then      row: the versions of k    R | W U D
//	                   also SIREAD [3]                      granted; at SSI, its reader  (SSI) stamped; interior pages  its read finds
//	                                                        word [1]                     in the level's read mode       page: stamps of k's leaf
//	Put Insert Delete  Exclusive [10]      as writer        row k [8]; a refused Insert  leaf of k; interior pages in   as above                  K R L | W U D
//	  (k has a chain)                                       then reads k as Get [10]     the level's read mode; then
//	                                                                                     stamp the leaf (refused: SSI)
//	Put Insert Delete  Exclusive [10]      as writer, gap   gap before succ(k), probed   the whole path Exclusive if    as above                  K R L | W U D
//	  (structural [4])                     holders too      in the claim [5]; row k;     the leaf will split (interior
//	                                                        once k is in, the gap's      pages stamped too), else as
//	                                                        SIREADs also cover k's gap   above
//	                                                        and row, its Shared k's gap
//	Scan ScanLimit [9] none / SIREAD /     as reader [1]    row and gap of each visited  leaf of each visited key and  -                         - | U D
//	                   Shared [2] [6]                       key; gap of the first key    of the first key beyond; the
//	                                                        beyond, or the supremum      first round adds the descent
//	                                                                                     path to `from`
//
//	[1] Rivals of a read are the creators of versions newer than its
//	    snapshot: of the keys read (row), or of the leaf pages read and, for a
//	    scan, of its descent's interior pages, per their write stamps, which
//	    are read after locking (page) — and, at page granularity only, the
//	    Exclusive holders of its targets, as a page writer locks its leaf
//	    before it stamps it, and holds the new page a split moves its rows
//	    to (lock.Manager.Inherit). At row granularity only a version signals a
//	    write: a read marks no lock holder, and a new key's writer marks the
//	    scanners of the gap its insert split [4]. An SSI Get of an existing
//	    row takes no lock-table entry there: its
//	    SIREAD is the row's reader word, which names one reader by a slot and
//	    which it sets in the latch hold that reads the row. Writers find it
//	    there (as they find SIREAD holders [3]); an explicit grant does not
//	    look. A read that finds the word naming another reader takes its
//	    SIREAD in the lock table and then reads again; the word is cleared
//	    when its reader retires or aborts, or by the claim that installs its
//	    reader's own version of the row [10]: only a version retires a read.
//	[2] A declared read-only SSI transaction on a safe snapshot reads with no
//	    lock. Shared-mode reads see the latest committed version, the others
//	    the transaction's snapshot, assigned at its first read or, for a write,
//	    after the write's locks (so a first-statement write never fails FCW).
//	[3] Rivals of a write are the SIREAD holders of its targets, filtered to
//	    transactions concurrent with the writer. GetForUpdate's lock is not a
//	    write: it marks no rival and no reader marks it [1]. It decides from
//	    the one read it makes once granted: it waits out a writer still
//	    holding k [10], then takes its snapshot if it has none [2], is W if
//	    the read found a newer committed version, and keeps its read unless
//	    the transaction writes k — at SSI as Get does, at S2PL by the
//	    Exclusive lock itself. At page granularity the Exclusive leaf drops
//	    the holder's SIREAD there (§3.7.3), so the leaf is stamped, as a write
//	    stamps it.
//	[4] Structural: a write to a key without a chain — a Put or Insert of a
//	    new key, a Delete of an absent one. At row granularity its claim
//	    probes the gap in the latch hold that inserts k (Figure 3.7): a
//	    lookup that finds the SIREAD holders to mark, which another's Shared
//	    lock blocks — only then is the gap locked, waited for unlatched, and
//	    k claimed again. Keys never leave the index, so every scan that
//	    covered k holds its row lock — it visited k, or k's insert split its
//	    gap — which a row write's probe finds [10]: a Delete, or an Insert
//	    over a tombstone, takes no gap lock. Page granularity checks every
//	    Insert and Delete for a split.
//	[5] Not at SI, which promises no predicate protection.
//	[6] A locking scan locks each round of keys while the store's latches
//	    exclude inserts: SIREADs in a batch, Shared locks in key order, the
//	    first that would wait (a lock, or a row's held head version) ending
//	    the collection, to wait unlatched and collect again. A row the
//	    scanner wrote takes no row lock. At page granularity a collection's
//	    first round also locks the descent path to `from`, read in the
//	    round's latch hold, so a range with no key in it is still covered;
//	    every page lock, a point operation's path too, is taken in the latch
//	    hold that reads the page, and one that would wait is waited for
//	    unlatched and the path read again. At every level the range is
//	    collected, locked and marked in full before the callback sees a row,
//	    in a scan context (items, lock keys, rivals) recycled through a
//	    sync.Pool: it is taken when Scan starts and handed back zeroed when
//	    Scan returns, a nested Scan takes its own, and the key and value
//	    slices the callback receives are valid only until Scan returns.
//	[7] Statement-level errors leave the transaction usable: K ErrKeyExists
//	    (Insert of a visible key), R ErrReadOnly (on a declared read-only
//	    transaction), L ErrKeyTooLong (a write whose key or table name is
//	    longer than 65 535 bytes, the most a redo entry names; refused before
//	    any lock, at every level and on every database); the registered-program
//	    layer (package programs) adds F ErrFootprint. Transaction-level
//	    errors mean the transaction has been rolled back and every further
//	    call returns ErrTxnDone; all are Retryable:
//	    W ErrWriteConflict (SI and SSI: the FCW unit has a version newer than the
//	    snapshot), U ErrUnsafe (SSI: a dangerous structure; also from Commit),
//	    D ErrDeadlock and ErrLockTimeout (a blocking acquisition: any Exclusive
//	    lock, and S2PL's Shared ones). A Commit that returns a log error is
//	    neither: the commit is published in memory, its durability unknown.
//	[8] Named by the stored key: the operation looks k up once (mvcc.Locate, one
//	    descent), names the row lock by the key string the tree itself holds,
//	    and then reads the versions, checks First-Committer-Wins, installs and
//	    — on abort — undoes its write through the same handle, with no further
//	    descent. The look-up reads no row state, so the order of Figures 3.4
//	    and 3.5 stands: lock first, then read. An SSI Get of an existing row
//	    looks k up, reads it and sets its word in one latch hold
//	    (mvcc.Table.ReadAs), which no write can split, and keeps the handle for
//	    the word's clear at its end. An explicit lock on a key that
//	    has no chain is taken under a copy of k, and the key looked up again
//	    once the lock is held; a row-granularity write to such a key copies
//	    nothing but what the tree keeps: it inserts k into the tree's key
//	    arena in its latch hold ([10]), and names the row by that copy.
//	[9] A value returned (Get, GetForUpdate) or shown to a Scan callback
//	    aliases the stored version: it is read-only, and its capacity equals
//	    its length, so an append copies instead of writing into the store or
//	    into another reader's result.
//	[10] A write's row lock is implicit at every level: its uncommitted
//	    version, until the writer commits or aborts (package lock, "Implicit
//	    row locks"). Every write decides and installs in one exclusive latch
//	    hold (mvcc.Table.Claim). At row granularity: its own head is
//	    overwritten; a head committed after its snapshot is W (S2PL has no
//	    snapshot); a head another writer still holds sends it to wait;
//	    otherwise it probes the row's lock-table entry — a lookup, never an
//	    insert — for the SIREAD holders to mark and for a blocking lock, reads
//	    the reader the row's word names [1], and installs (a new key once its
//	    gap probe [4] passes); the version takes the place of the writer's
//	    own read of the row, in the word or in the table, which the claim
//	    drops (§3.7.3). An Insert on a live head is
//	    refused (K) before the probe, touching neither the lock table nor the
//	    word, and then reads k as Get does (and claims again if k was deleted
//	    meanwhile). A write that must wait converts the head writer's implicit
//	    lock into an Exclusive entry held on its behalf, or acquires behind
//	    the blocking entry, waits in the table (D) and claims again. Every
//	    explicit blocking grant on the row — S2PL's reads and GetForUpdate,
//	    which keep their lock-table entries — reads the row once granted, and
//	    waits the same way while that read finds another writer's version
//	    holding it (so does a Shared scan round); it retires no read. A read of a row whose head is the transaction's
//	    own version takes no SIREAD there: the version carries it. At page
//	    granularity the page locks come first and exclude every other writer
//	    of the row, across a split too — the split hands the new page's
//	    Exclusive lock to the writer holding the old one, beside the readers'
//	    SIREADs — so the claim asks the lock table nothing: it installs, or
//	    refuses an Insert (K), and stamps the leaf (a refusal at SSI only); a
//	    refusal then reads k as Get does.
//
// Handle lifetime. The *ssidb.Txn a begin returns is the caller's: it may be
// kept past Commit, Abort or the return of Run and RunRetry, and from then on
// every operation on it returns ErrTxnDone (Abort returns nil). What the
// transaction needed only while it ran — its record, the database it ran
// against, write set, rival buffer, redo record — is the engine's: it sits in
// a scratch recycled through a sync.Pool, taken at begin and handed back
// zeroed the moment the transaction is done, and the finished handle no
// longer reaches it. The scratch lets go of the record at the end,
// and a record no other transaction can have seen — one that locked nothing,
// wrote nothing and was in no conflict, such as a declared read-only reader
// promoted to a safe snapshot at its first read — is recycled for a later
// transaction at once; any other record that was never in a conflict is
// recycled once it has retired and every transaction that ran beside it has
// ended. A finished handle keeps nothing alive and answers from its own 24
// bytes:
//
//	accessor       while the transaction runs            once it has ended
//	ID             its id                                the same id
//	Isolation      its level                             the same level
//	ReadOnly       whether it was declared read-only     the same answer
//	SafeSnapshot   whether it was promoted to a safe     the same answer
//	               snapshot
//	Snapshot       its read timestamp, 0 before the      0
//	               first read
//
// Like any Txn, a handle is for one goroutine at a time.
//
// Durable reads. On a database opened with OpenDir, every value a
// transaction read is durable once its Commit returns nil — and, over the
// wire, once the reply to MsgTxn or MsgCommit reports success. A writer's
// commit waits for its own log record, which follows every record its
// snapshot saw. A transaction that appends no record (declared read-only, or
// read-write with an empty write set) waits, at SI and SSI, for the log's
// last record as of its snapshot: a commit is visible to snapshots as soon
// as it is published, before its batch's fsync returns, and the snapshot is
// adopted under the same latch the commit appends under, so that record
// covers every commit the snapshot can see. The wait is one atomic load when
// the record is already durable, as it usually is, and nothing on an
// in-memory database. S2PL reads take no snapshot: they wait on the writer's
// write lock, which is released only once its batch is durable. The
// promise is about Commit: a value returned to the caller earlier — by Get or
// Scan inside the transaction, or in the reply to an interactive MsgOp — may
// not be durable yet, and a crash before the Commit returns can lose it.
//
// # The detector: when ErrUnsafe is returned
//
// A SerializableSI transaction is rolled back with ErrUnsafe when the rw-edge
// an operation just recorded, or the edges the transaction already carries,
// complete a dangerous structure Tin -rw-> pivot -rw-> Tout. The zero
// ssidb.Options run the precise detector (thesis §3.6, Figures 3.9/3.10):
// every edge remembers its counterpart, and one predicate in internal/core
// (Manager.dangerous, whose comment argues each rule from Theorem 1) calls a
// structure dangerous only when two rules both allow it. CO, commit ordering:
// Tout has committed, and before both Tin and the pivot — in every cycle some
// structure's Tout is the first to commit. RO, Ports & Grittner's read-only
// rule: if Tin writes nothing, only when Tout committed before Tin took its
// snapshot. Tin counts as read-only if it was declared so (BeginReadOnly,
// RunReadOnly, TxnOptions) or if it has committed without creating a version.
// The victim is always the transaction executing at the site:
//
//	site                              pivot        Tin                Tout                     rules applied
//	a read finds a newer version of   committed    the caller         the one the pivot kept:  CO; RO if the caller is
//	  a committed writer (reader-side)                                a counterpart, or the    declared read-only
//	                                                                  commit timestamp of one
//	                                                                  that committed before it
//	a write finds the SIREAD lock of  committed    its recorded       the caller               none: a running Tout has
//	  a committed reader (writer-side)             incoming edge                               not committed first
//	each operation of a transaction   the caller   its recorded       its recorded outgoing    CO; RO if Tin is declared,
//	  carrying both edges (abort-early)            incoming edge      edge                     or committed without writing
//	Commit                            the caller   as above           as above                 as above, once, inside the
//	                                                                                           commit-serialization section,
//	                                                                                           where "Tout still running"
//	                                                                                           is final
//
// Two things the recorded edges cannot say are decided conservatively, and are
// where the remaining false positives come from
// (internal/interleave/testdata/census.golden counts them on small script
// sets, per detector, and is the gate on any change to these rules). A Tin that
// is still running and undeclared may yet write, so RO does not apply to it —
// declare read-only transactions. And an edge with several counterparts keeps
// no names: several Touts read as "one of them committed first" even if none
// has committed, which is also the only way ErrUnsafe can strike before any
// transaction involved has committed.
//
// ssidb.DetectorBasic is the boolean-flag algorithm of thesis §3.2, which the
// Berkeley DB prototype ran. It is not a second algorithm: it is the same
// predicate over edges that never name a counterpart (internal/core's
// Manager.named), so neither CO nor RO can apply and both edges existing
// means abort, at all four sites — the writer-side one included. The
// Berkeley DB figures and the detector ablation (internal/scenario's table —
// the one non-test file that sets the figure-only options) and the
// two-detector tests select it, and nothing else should.
//
// # Scaling beyond the paper
//
// The thesis prototypes inherit their hosts' global synchronisation: one
// kernel mutex for the transaction manager and one latch for the whole lock
// table, so every begin, lock and commit on every core serialises through
// two global locks. This reproduction keeps the paper's semantics — SIREAD
// suspension, page-split SIREAD inheritance, First-Committer-Wins, both
// conflict detectors — but rebuilds the substrates along the lines that
// made SSI production-ready in PostgreSQL (Ports & Grittner, VLDB 2012):
//
//   - internal/lock hash-stripes the lock table into GOMAXPROCS-scaled
//     shards (ssidb.Options.LockShards), each with its own mutex and
//     ownership bookkeeping; deadlock detection lives in a dedicated
//     cross-shard waits-for graph touched only by parked requests. The
//     contended path is spin-then-park: a blocked acquire probes briefly
//     before registering anywhere, then joins a per-entry FIFO queue whose
//     releases hand the lock directly to — and wake only — the waiters
//     that can now be granted. ssidb.Options.LockWaitTimeout bounds how
//     long a parked request may wait (failing with ErrLockTimeout), and
//     the wait path is instrumented end to end: ssidb.Stats reports
//     blocked acquires, spin grants versus parks, targeted wakeups,
//     timeouts and cumulative wait time (ssibench prints those that moved
//     under every cell).
//   - internal/core replaces the kernel mutex with an atomic clock, a
//     two-store commit-serialization point, a lock-free SSI conflict core,
//     and an id-sharded active-transaction registry whose pruning watermark
//     (OldestActiveSnapshot) is a handful of atomic loads. The conflict
//     state (the paper's inConflict/outConflict) is per-transaction: atomic
//     references written only under the owning transaction's tiny conflict
//     mutex, so the per-operation abort-early probe is three atomic loads
//     with no mutex unless a dangerous structure already exists,
//     MarkConflict coordinates only the two transactions on the edge (id
//     order prevents deadlock), and the commit-time dangerous-structure
//     check under the committing transaction's own mutex guarantees an
//     edge racing with commit is seen by at least one of the two checks
//     (the package comment states the memory-ordering invariants).
//     Everything that watermark frees is freed in one place: a committed
//     transaction that must outlive its commit joins the commit-ordered
//     retirement queue of its own registry shard (each queue with its own
//     mutex — no mutex shared by all shards is taken at commit), and every
//     transaction end drains, on every shard, the entries the watermark has
//     passed, handing them in batches to one engine hook (SetRetireHook):
//     ssidb releases their SIREAD locks and prunes the versions they
//     superseded there.
//   - internal/mvcc hash-partitions every table's row store into
//     GOMAXPROCS-scaled partitions (ssidb.Options.TableShards), each an
//     independently latched B+tree, so point reads and writes on different
//     partitions share no latch. Under GranularityPage a table is one tree,
//     as in Berkeley DB, so a page number names one page of the table
//     (ssidb.DB.TableShards). The store keeps rows
//     only: page versions (the write stamps behind page-level
//     First-Committer-Wins) and their split inheritance live in the page
//     strategy (ssidb/locks_page.go), which takes the trees' page topology
//     and a split hook from the store. Ordered scans are a k-way merge over
//     the per-partition trees run as bounded lock-coupled rounds: each round
//     takes every partition latch shared (ascending — the order structural
//     inserts take them exclusively), emits up to a chunk of keys, installs
//     the emitted keys' row/gap locks while still latched, then releases
//     everything and re-seeks any iterator whose tree changed before the
//     next round. A writer waits for at most one round, never for the scan;
//     phantom detection is preserved because an insert behind the frontier
//     lands on a gap the scan already locked, and one ahead of it is
//     emitted by the resumed merge itself (the invariant argument is on
//     mvcc.Table.ScanWith). Version pruning is off the write path and has no
//     schedule of its own: a committed writer hands its write set (the row
//     handles it wrote) to its retirement, and the retire hook prunes, under
//     each partition's latch held once per batch, exactly the versions those
//     rows' commits superseded — synchronously with transaction ends, in
//     proportion to garbage, whatever snapshot was pinning it; no goroutine,
//     counter or sampling is involved (ssidb.DB.Vacuum still walks every
//     chain on demand). The table directory itself is an atomic
//     copy-on-write map — resolving a table name costs one atomic load.
//   - A stored row is three things (≈72 B for a 4-byte key and a 1-byte
//     value straight after a load, TestRowFootprintAllocBudget, and ≈60 B
//     once every row was overwritten,
//     TestOverwrittenRowFootprintAllocBudget; ≈231 B for a SmallBank
//     customer's three rows, TestSmallBankFootprintAllocBudget): a B+tree
//     leaf entry — a 4-byte key head, a pointer to the key and a pointer to
//     the chain, in three parallel arrays (the tree is generic in its value
//     type, so the entry holds no interface) — the key itself, as its length
//     and bytes in the tree's append-only key arena, and the 32-byte chain
//     the entry points at, whose value is a pointer and a 32-bit length with
//     the tombstone flag in the padding behind it. Its creator is its
//     writer's 24-byte core.Cell only until the writer retires: the pruning
//     that retirement runs then points the version at the one shared frozen
//     cell (PostgreSQL's FrozenTransactionId), so a row written long ago
//     keeps no cell alive. A leaf's arrays are allocated once, at the page
//     capacity (a 256-byte head array and two 512-byte pointer arrays at 64
//     keys, each exactly a size class), and never regrown; binary search
//     compares heads and reads a stored key only when heads tie. A full page
//     splits before the insert, in the middle unless the new key lands at the
//     right edge of the tree, where the old page stays full and the new key
//     alone moves (Berkeley DB's and PostgreSQL's rule for ascending keys,
//     decided from the observed insert position — there is no fill factor),
//     so a sequential load fills pages to PageMaxKeys. The chain is its own newest
//     version: a superseding write copies the old head out behind it and
//     overwrites the head in place (a first insert allocates the chain
//     alone), and rollback and pruning do the reverse — safe because no
//     pointer to a version leaves the partition latch it was read under, and
//     for the same reason the versions rollback and pruning unlink go, zeroed,
//     onto a per-partition free list under that latch and are what the next
//     superseding writes copy into: a steady-state overwrite allocates
//     nothing, on any number of processors, because the writer's own
//     retirement refills what its write took. Key bytes belong to the tree:
//     Put, Insert and Delete only borrow the caller's key (a call that may
//     create the row copies it into an immutable string that names the
//     absent row's lock, and the tree copies it into its arena if the row is
//     inserted), every row and gap lock on a key the tree holds — a scanned row, a
//     gap, an insert's successor, the gap the insert itself creates, and the
//     row of a point read or write, through the handle of note [8] above — is
//     named by that string rather than by a fresh copy, and a Scan callback
//     is shown a read-only view of it. Value slices are the opposite:
//     retained as given, and not to be modified after the call; readers get
//     them back with their capacity cut to their length (note [9]).
//   - Declared read-only transactions (ssidb.BeginReadOnly, RunReadOnly,
//     TxnOptions) ride the same registry: a transaction that never writes
//     can never be the outgoing side of a dangerous structure, so the core
//     skips its out-edge bookkeeping (the writer's incoming edge is kept —
//     the read-only anomaly's pivot still aborts), shrinks its abort-early
//     probe to a status check, and commits it by pure timestamp
//     publication. On top of that, a per-shard read-write watermark plus a
//     monotone threat horizon (the highest commit timestamp published with
//     an outgoing edge) decide when a snapshot is safe — no concurrent
//     read-write transaction can commit an anomaly ahead of it — at which
//     point the reader drops SIREAD acquisition entirely, point and scan,
//     and reads at plain-SI cost while staying serializable. A positive
//     verdict is permanently sound for its holder, so the check is a
//     handful of atomic loads until the first yes, then a cached boolean.
//     A reader promoted at its first read locks nothing, writes nothing and
//     is in no conflict, so at its end no other transaction can hold its
//     record: core.Manager.Release hands the record to the next begin, and
//     such a reader allocates only its 24-byte handle
//     (TestReadOnlyTxnAllocBudget).
//   - internal/server and cmd/ssiserver put a network front end on all of
//     it: a TCP server speaking a length-prefixed framed protocol with one
//     pipelined session goroutine per connection, a batched transaction
//     API (a whole read/write set plus commit in one round trip), and
//     interactive transactions whose remote handle runs the SmallBank
//     programs unmodified. The front door applies the paper's §6
//     thrashing argument as admission control — an MPL cap with a bounded
//     FIFO queue, queue-wait deadlines, and immediate retryable refusals
//     beyond either bound — plus per-connection read/write deadlines that
//     cut off clients wedged while holding locks, a connection cap with
//     fast refusal, a typed error taxonomy whose codes map back to the
//     ssidb sentinels across the wire, and a SIGTERM drain that finishes
//     in-flight transactions and exits 0. Commits are acknowledged only
//     after the group-commit fsync, so the kill -9 recovery contract holds
//     across the network boundary (both re-exec tested). `ssibench -run
//     remote-kvmix -server addr -connections N` drives it from a separate
//     process and reports end-to-end p50/p99/p999 tail latency.
//
// The scaling rows of the same table (`ssibench -run kvmix` for the lock
// axis, `-run kvmix-readheavy` for the row-store partition axis, `-run
// kvmix-hot` for the hot-key mix that drives the SSI conflict paths, `-run
// scanstall` for full-table scans against point writers with writer
// commit-latency percentiles, `-run kvmix-readmostly` for the read-mostly
// declared-read-only mix; `ssibench -list` has them all) measure commit
// throughput versus parallelism and shard count, complementing the paper's
// figures, which measure contention regimes at modest multiprogramming;
// internal/core's microbenchmarks track the conflict core's per-call cost in
// isolation, scaling_bench_test.go holds the allocation budgets, and
// `ssibench -json` writes every row's cells as a machine-readable
// BENCH_<row>.json.
package ssi
