// Package ssidb is an embedded multiversion key-value database implementing
// the concurrency control algorithms studied in Cahill, Fekete and Röhm,
// "Serializable Isolation for Snapshot Databases" (SIGMOD 2008 / Cahill's
// 2009 thesis):
//
//   - S2PL: classical strict two-phase locking serializability,
//   - SnapshotIsolation: multiversion SI with the First-Committer-Wins rule,
//   - SerializableSI: the paper's contribution — SI plus SIREAD locks and
//     rw-antidependency tracking, which aborts transactions that could form
//     the "dangerous structure" present in every non-serializable SI
//     execution, yielding true serializability with non-blocking reads.
//
// Isolation levels are chosen per transaction and may be mixed (thesis
// §2.6.3, §3.8). Two lock/versioning granularities reproduce the paper's two
// prototypes: GranularityRow models InnoDB (row locks plus next-key gap
// locks, which detect phantoms per thesis §3.5) and GranularityPage models
// Berkeley DB (page-level locks and page-level First-Committer-Wins, whose
// coarseness is the source of the false positives analysed in §6.1.5).
//
// Typical use:
//
//	db := ssidb.Open(ssidb.Options{})
//	err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
//		v, _, err := tx.Get("accounts", []byte("alice"))
//		if err != nil {
//			return err
//		}
//		return tx.Put("accounts", []byte("alice"), newBalance(v))
//	})
//
// Errors ErrUnsafe, ErrWriteConflict, ErrDeadlock and ErrLockTimeout mean
// the transaction was aborted and should be retried by the application
// (Retryable classifies them).
//
// # Durability
//
// Open is in-memory; OpenDir, the one durable entry point, adds a write-ahead
// log and crash recovery:
//
//	db, err := ssidb.OpenDir(dir, ssidb.Options{
//		GroupCommitMaxDelay: 200 * time.Microsecond,
//	})
//
// Every committing writer appends one redo record at the engine's commit
// point — log order is commit order — and then waits for the record to be
// durable before its blocking locks are released. Snapshot readers take no
// blocking lock, and a commit is visible to snapshots from its commit point,
// before its fsync returns: a transaction can read a write a crash would
// still lose. What it cannot do is commit on it: a transaction that appends
// no record of its own waits, at SI and SSI, for the log's last record as of
// its snapshot, so once any Commit returns nil, everything the transaction
// read is durable (the module's package documentation, "Durable reads", has
// the whole contract). Flushes are batched by group commit: a dedicated
// flusher goroutine lingers up to GroupCommitMaxDelay for committers to pile
// on (at most 256 records), and retires the whole batch with a single
// fdatasync against a preallocated segment. OpenDir replays the log —
// tolerating a torn tail from a mid-write crash — and Checkpoint folds it
// into an image so recovery stays proportional to recent activity; with
// CheckpointBytes > 0 checkpoints also trigger automatically as log bytes
// accumulate (checked after every durable commit, whatever snapshots are held
// open). A checkpoint file is the log's own format: CRC frames of redo
// records, one per 64 KiB chunk of one table's rows at the checkpoint
// snapshot, closed by an empty end frame. Each chunk is scanned into one
// buffer and written once the scan has returned (never under a partition
// latch), so a checkpoint's memory does not grow with the database; recovery
// applies the image's frames and then the log's through the same decoder.
// Log and image hold committed rows only: a table comes to exist by its first
// use, in recovery as in a live database, and an empty table leaves nothing
// on disk. The image is published by fsync and atomic rename. Stats
// reports WALAppends, GroupCommitBatches, Fsyncs, AvgBatchSize and
// RecoveryReplayed.
//
// # Workload robustness: proven-robust programs at plain SI
//
// SSI's SIREAD locks and conflict tracking pay for serializability that
// some workloads get for free: if an application's transaction programs are
// statically robust — their dependency graph has no dangerous structure
// (Fekete 2005, thesis Ch. 2) — every execution under plain SI is already
// serializable. RegisterPrograms runs that analysis at registration:
//
//	rep, err := db.RegisterPrograms(progs, ssidb.ProgramOptions{
//		ClassTables: map[string]string{"Account": "account", ...},
//		AutoRemedy:  true, // mechanically Promote away dangerous structures
//	})
//	err = db.RunProgram("Pay", func(tx *ssidb.Txn) error { ... })
//
// A robust set runs every RunProgram transaction at SnapshotIsolation — no
// SIREADs, no false-positive ErrUnsafe aborts — with read-only programs
// riding the declared-read-only fast path; a non-robust set keeps full
// SerializableSI. The proof is guarded at runtime: accesses outside a
// program's declared footprint fail that statement with ErrFootprint and
// permanently escalate the database to SerializableSI, as does any ad-hoc
// Begin alongside registered programs. Stats reports ProgramRuns,
// ProgramSIRuns, FootprintViolations, SDGEscalations and SDGEscalated.
package ssidb

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ssi/internal/core"
	"ssi/internal/lock"
	"ssi/internal/mvcc"
	"ssi/internal/wal"
)

// Isolation selects a transaction's concurrency control algorithm.
type Isolation = core.Isolation

// Isolation levels.
const (
	SnapshotIsolation = core.SnapshotIsolation
	SerializableSI    = core.SerializableSI
	S2PL              = core.S2PL
)

// Detector selects the SSI conflict detector variant.
type Detector = core.Detector

// Detector variants: the default (thesis §3.6 plus the read-only rule) and the
// boolean-flag algorithm of §3.2.
const (
	DetectorPrecise = core.DetectorPrecise
	DetectorBasic   = core.DetectorBasic
)

// Granularity selects the locking and conflict-detection granularity.
type Granularity int

const (
	// GranularityRow locks individual rows and the gaps between them, as
	// the InnoDB prototype does (thesis §4.6).
	GranularityRow Granularity = iota
	// GranularityPage locks whole B+tree pages and applies
	// First-Committer-Wins per page, as the Berkeley DB prototype does
	// (thesis §4.2-§4.3).
	GranularityPage
)

// Abort-class errors. A transaction returning one of these has already been
// rolled back; callers typically retry.
var (
	ErrUnsafe        = core.ErrUnsafe
	ErrWriteConflict = core.ErrWriteConflict
	ErrDeadlock      = core.ErrDeadlock
	// ErrLockTimeout reports that a blocking lock request waited longer
	// than Options.LockWaitTimeout. The transaction has been rolled back;
	// whatever held the lock may still be wedged, but this transaction (and
	// the locks it held) no longer contribute to the pile-up.
	ErrLockTimeout = core.ErrLockTimeout
	ErrTxnDone     = core.ErrTxnDone
	// ErrKeyExists reports an Insert of a key that is already visibly
	// present. It does not abort the transaction.
	ErrKeyExists = errors.New("ssi: key already exists")
	// ErrReadOnly reports a write attempted on a transaction declared
	// read-only at begin (BeginReadOnly, or BeginTx with TxnOptions.ReadOnly).
	// Like ErrKeyExists it is a statement-level error: the transaction is not
	// aborted and may continue reading and commit.
	ErrReadOnly = errors.New("ssi: write on read-only transaction")
	// ErrKeyTooLong reports a write whose key or table name is longer than
	// 65 535 bytes, the most a redo entry can name. Like ErrKeyExists it is
	// a statement-level error, at every level and on every database.
	ErrKeyTooLong = errors.New("ssi: key or table name longer than 65535 bytes")
)

// Retryable reports whether err is one of the abort-class errors, after which
// the transaction has been rolled back and may be retried on a fresh one: a
// serialization failure (ErrUnsafe), a First-Committer-Wins write conflict
// (ErrWriteConflict), a deadlock victim (ErrDeadlock), or a lock wait
// abandoned at Options.LockWaitTimeout (ErrLockTimeout). It is the one
// retry classification shared by RunRetry, the server's wire error mapping
// (internal/server sets its retryable bit from it), and the ssibench network
// client — so retry policy cannot drift between layers. Callers that loop on
// it should back off on RunRetry's schedule (stated there), which
// desynchronises contending retry loops — the way out of the few aborts that
// implicate no committed transaction.
func Retryable(err error) bool {
	return errors.Is(err, ErrUnsafe) || errors.Is(err, ErrWriteConflict) ||
		errors.Is(err, ErrDeadlock) || errors.Is(err, ErrLockTimeout)
}

// errText renders an error for a stats field: empty string for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Recorder receives the database's operation history. It exists so tests can
// build the multiversion serialization graph of an execution and verify
// serializability from the outside (the methodology of thesis §4.7). readTS
// is the snapshot for snapshot reads, or the clock at read time for locking
// reads; sawWriter is the transaction that created the version read (0 if
// the key was absent), or math.MaxUint64 if the version was frozen — its
// writer had retired, so its commit precedes readTS and the version is the
// newest one committed at or before readTS. Implementations must be safe for
// concurrent use.
type Recorder interface {
	RecBegin(txn uint64, iso string)
	RecRead(txn uint64, table, key string, sawWriter uint64, readTS uint64)
	RecWrite(txn uint64, table, key string, tombstone bool)
	RecScan(txn uint64, table, from, to string, readTS uint64)
	RecCommit(txn uint64, commitTS uint64)
	RecAbort(txn uint64)
}

// Options configures a DB.
type Options struct {
	// Detector selects the SSI variant. The default, DetectorPrecise, names
	// the counterpart of every rw-conflict and aborts a transaction only when
	// commit order and the read-only rule both leave a cycle possible (the
	// root package comment's detector section has the rule table).
	// DetectorBasic is the boolean-flag algorithm of thesis §3.2, kept for
	// reproducing the Berkeley DB prototype's figures: it aborts several
	// times as often and promises nothing more.
	Detector Detector
	// Granularity selects row- or page-level locking. Default row. A
	// page-granularity table is one B+tree, whatever TableShards says.
	Granularity Granularity
	// PageMaxKeys is every table's page capacity (keys per B+tree page).
	// Smaller pages increase page-mode contention. Default 64.
	PageMaxKeys int
	// FlushLatency is the simulated duration of one physical log flush at
	// commit: the WAL runs against an in-memory null device whose sync
	// sleeps this long. Zero disables logging entirely (the Figure 6.1
	// configuration); non-zero enables group commit against the simulated
	// disk (Figures 6.2+). Ignored by OpenDir — real fsyncs are used.
	FlushLatency time.Duration
	// GroupCommitMaxDelay is how long the WAL flusher lingers before
	// issuing its sync so concurrent committers can join the batch. Zero
	// syncs immediately; batching still happens naturally among commits
	// that arrive while a sync is in flight.
	GroupCommitMaxDelay time.Duration
	// SegmentBytes is the WAL segment roll size. Default 64 MiB.
	SegmentBytes int64
	// CheckpointBytes triggers an automatic asynchronous checkpoint (and
	// WAL truncation) once this many log bytes accumulate since the last
	// one. Zero selects the default (16 MiB); negative disables automatic
	// checkpoints (DB.Checkpoint still works). Only meaningful with OpenDir.
	CheckpointBytes int64
	// LockShards is the number of hash stripes in the lock manager's table
	// (rounded up to a power of two, clamped to [1, 256]). Zero selects the
	// default, core.ShardCount's: GOMAXPROCS-scaled so every core can work
	// a different stripe. One shard reproduces the paper's single lock-table
	// latch, useful as a contention baseline.
	LockShards int
	// LockWaitTimeout bounds how long a blocking lock request (S2PL reads,
	// write locks at every level) may wait before the transaction is
	// aborted with ErrLockTimeout. Zero, the default, waits forever —
	// deadlocks are still detected immediately either way; the timeout
	// exists for the non-cycle hazard of a holder that is simply stuck.
	LockWaitTimeout time.Duration
	// TableShards is the number of hash partitions in each table's row
	// store under GranularityRow (rounded up to a power of two, clamped to
	// [1, 256]). Each partition is an independently latched B+tree, so point
	// operations on different partitions never contend; ordered scans merge
	// the partitions back into one sequence. Zero selects mvcc.ShardCount's
	// GOMAXPROCS-scaled default; row conflicts are per key, so they do not
	// depend on the partitioning. One partition reproduces the single-tree
	// store, a baseline and the oracle of the cross-partition scan property
	// tests. GranularityPage ignores it: a page-mode table is Berkeley DB's
	// single B+tree, whose conflicts (which keys share a page, what a split
	// rewrites) would otherwise vary with the partitioning. DB.TableShards
	// reports the effective value.
	TableShards int
	// Recorder, if set, receives the full operation history.
	Recorder Recorder
}

type table struct {
	name   string
	data   *mvcc.Table
	stamps *pageStamps // GranularityPage's page versions (locks_page.go); nil under GranularityRow
}

// tableMap is the immutable table directory; a new map is published on every
// table creation (copy-on-write), so the per-operation name lookup is one
// atomic load with no reader-count cache-line bounce.
type tableMap = map[string]*table

// read reads key at snap through row, the handle a Locate before the
// operation's lock found — or by key if it found none, since the row may have
// been inserted by the time the lock was granted.
func (tb *table) read(t *core.Txn, snap core.TS, key []byte, row mvcc.Row) mvcc.ReadResult {
	if row.IsZero() {
		return tb.data.Read(t, snap, key)
	}
	return row.Read(t, snap)
}

// DB is an embedded multiversion database. All methods are safe for
// concurrent use.
type DB struct {
	opts    Options
	mgr     *core.Manager
	locks   *lock.Manager
	targets lockTargets // the granularity strategy (txn.go), fixed at open
	log     *wal.Log    // nil when neither OpenDir nor FlushLatency set one up
	dir     string      // OpenDir's directory; "" for in-memory (real or simulated log)

	tables   atomic.Pointer[tableMap]
	createMu sync.Mutex // serialises table creation (map copy + publish)

	// Durability bookkeeping: recovered counts records replayed at open;
	// ckptAt is the WAL byte count at which the next automatic checkpoint
	// starts (never, without one); ckptBusy is the async single-flight latch;
	// ckptMu serialises checkpoint passes and guards closed, which Close sets
	// so that no checkpoint runs on the closed log.
	recovered   atomic.Uint64
	checkpoints atomic.Uint64
	ckptAt      atomic.Uint64
	ckptBusy    atomic.Bool
	ckptMu      sync.Mutex
	closed      bool

	// Read-only path instrumentation (see Stats).
	roBegins      atomic.Uint64
	roPromotions  atomic.Uint64
	roSIReadSkips atomic.Uint64

	// Robustness subsystem (programs.go): the registered program set, the
	// one-way escalated-to-SSI latch with its event counter, the footprint
	// and program-run counters, and siProgActive, the in-flight program
	// transactions admitted at plain SI that an ad-hoc begin drains.
	programs            atomic.Pointer[progRegistry]
	sdgEscalated        atomic.Bool
	sdgEscalations      atomic.Uint64
	footprintViolations atomic.Uint64
	programRuns         atomic.Uint64
	programSIRuns       atomic.Uint64
	siProgActive        atomic.Int64
}

// Open creates an in-memory database with the given options.
func Open(opts Options) *DB {
	db, _ := open("", opts, nil) // only recovery fails, and an in-memory database has none
	return db
}

// OpenDir opens (creating if needed) a durable database rooted at dir:
// committed transactions are redo-logged through the group-commit WAL, and
// opening an existing directory recovers by loading the last checkpoint and
// rolling the log forward. Stats.RecoveryReplayed reports how many log
// records were applied.
func OpenDir(dir string, opts Options) (*DB, error) {
	return open(dir, opts, nil)
}

// open opens the database; wrap, when set, wraps the log's devices (the WAL's
// seam for tests that decide when a write or a sync returns).
func open(dir string, opts Options, wrap func(wal.Device) wal.Device) (*DB, error) {
	if dir != "" && opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = 16 << 20
	}
	db := &DB{
		opts:  opts,
		dir:   dir,
		mgr:   core.NewManager(opts.Detector),
		locks: lock.NewManagerShards(true, opts.LockShards),
	}
	db.targets = rowTargets{}
	if opts.Granularity == GranularityPage {
		db.targets = &pageTargets{db}
	}
	empty := tableMap{}
	db.tables.Store(&empty)
	db.locks.SetWaitTimeout(opts.LockWaitTimeout)
	db.mgr.SetRetireHook(db.retire)
	db.ckptAt.Store(math.MaxUint64)
	if dir != "" || opts.FlushLatency > 0 {
		l, err := wal.Open(wal.Options{
			Dir:                 dir,
			SyncDelay:           opts.FlushLatency,
			SegmentBytes:        opts.SegmentBytes,
			GroupCommitMaxDelay: opts.GroupCommitMaxDelay,
			WrapDevice:          wrap,
		})
		if err != nil {
			return nil, err
		}
		db.log = l
		if dir != "" {
			if err := db.recover(); err != nil {
				l.Close()
				return nil, err
			}
			db.armCheckpoint(db.log.BytesAppended())
		}
		// Installed only after recovery, so replayed commits are never
		// re-appended to the log they came from.
		db.mgr.SetCommitHook(db.walCommitHook)
	}
	return db, nil
}

// Close flushes and closes the write-ahead log. In-flight transactions must
// have finished; Close does not wait for them. Closing an in-memory
// database is a no-op.
func (db *DB) Close() error {
	if db.log == nil {
		return nil
	}
	db.ckptMu.Lock() // let a running checkpoint finish
	defer db.ckptMu.Unlock()
	db.closed = true
	return db.log.Close()
}

// LockShards returns the lock manager's effective shard count.
func (db *DB) LockShards() int { return db.locks.Shards() }

// TableShards returns the effective row-store partition count per table: one
// under GranularityPage, whose table is one B+tree, as in Berkeley DB.
func (db *DB) TableShards() int {
	if db.opts.Granularity == GranularityPage {
		return 1
	}
	return mvcc.ShardCount(db.opts.TableShards)
}

// getOrCreateTable is the one way a table comes to exist: its first use, by a
// statement or by recovery, with Options.PageMaxKeys as its page capacity. It
// reaches the granularity strategy's tableCreated (GranularityPage's page
// write stamps and split hook). Creation copies the table directory and
// publishes the new map atomically; lookups never block on it.
func (db *DB) getOrCreateTable(name string) *table {
	db.createMu.Lock()
	defer db.createMu.Unlock()
	old := *db.tables.Load()
	if tb := old[name]; tb != nil {
		return tb
	}
	tb := &table{name: name}
	tb.data = mvcc.NewTable(name, mvcc.Config{
		PageMaxKeys: db.opts.PageMaxKeys,
		Shards:      db.TableShards(),
		Horizon:     db.mgr.OldestActiveSnapshot,
	})
	db.targets.tableCreated(tb)
	next := make(tableMap, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = tb
	db.tables.Store(&next)
	return tb
}

func (db *DB) table(name string) *table {
	if tb := (*db.tables.Load())[name]; tb != nil {
		return tb
	}
	return db.getOrCreateTable(name)
}

// Begin starts a transaction at the given isolation level. Per thesis §4.5
// the read snapshot is assigned lazily, after the first statement's locks,
// so single-statement updates never abort under First-Committer-Wins.
func (db *DB) Begin(iso Isolation) *Txn {
	return db.BeginTx(iso, TxnOptions{})
}

// TxnOptions declares per-transaction properties at begin.
type TxnOptions struct {
	// ReadOnly declares that the transaction will not write: Put, Insert,
	// Delete and GetForUpdate on it return ErrReadOnly. The engine exploits
	// the declaration on the SerializableSI path — a read-only transaction
	// can never be the outgoing edge of a dangerous structure, so out-edge
	// tracking, the operation-time pivot probe and the commit-time re-check
	// all drop out; and once its snapshot is safe (no concurrent read-write
	// transaction can still commit a conflicting structure) it stops
	// acquiring SIREAD locks entirely, reading at plain-SI cost while
	// remaining serializable.
	ReadOnly bool
}

// BeginTx is Begin with explicit transaction options.
//
// With programs registered (RegisterPrograms), BeginTx is an *ad-hoc* begin:
// it permanently escalates program execution to SerializableSI.
func (db *DB) BeginTx(iso Isolation, opts TxnOptions) *Txn {
	db.noteAdhocBegin()
	return db.beginTx(iso, opts)
}

// beginTx starts a transaction without the ad-hoc accounting — the shared
// path under both BeginTx and BeginProgram.
func (db *DB) beginTx(iso Isolation, opts TxnOptions) *Txn {
	if opts.ReadOnly {
		db.roBegins.Add(1)
	}
	t := db.mgr.BeginTx(iso, opts.ReadOnly)
	if r := db.opts.Recorder; r != nil {
		r.RecBegin(t.ID(), iso.String())
	}
	return db.newTxn(t)
}

// BeginReadOnly starts a transaction declared read-only at the given
// isolation level: BeginTx(iso, TxnOptions{ReadOnly: true}).
func (db *DB) BeginReadOnly(iso Isolation) *Txn {
	return db.BeginTx(iso, TxnOptions{ReadOnly: true})
}

// RunReadOnly is Run with the transaction declared read-only.
func (db *DB) RunReadOnly(iso Isolation, fn func(*Txn) error) error {
	tx := db.BeginReadOnly(iso)
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// Run executes fn inside a transaction at the given isolation level,
// committing on nil return and aborting otherwise. It does not retry; use
// RunRetry for automatic retry of abort-class errors.
func (db *DB) Run(iso Isolation, fn func(*Txn) error) error {
	tx := db.Begin(iso)
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// RunRetry is Run plus automatic retry when the transaction aborts with an
// abort-class error (unsafe, write conflict, deadlock), the standard
// application response the paper assumes.
//
// The retry schedule: the first abort retries at once; after the n-th
// consecutive abort (n ≥ 2) the retry sleeps a uniformly random duration
// below a ceiling of 8µs << min(n-1, 7) — full jitter over 16µs, 32µs, …
// capped at 1.024ms. Repeated conflicts mean the keys are hot, and backing
// off sheds useless work; but the jitter is also what guarantees progress in
// the cases where an abort implicates no committed transaction, so that
// identical retry loops can re-create the same structure in lockstep — every
// transaction aborting, none committing. The default detector has one such
// case: it aborts a pivot only if its outgoing counterpart committed first,
// except that a pivot with several outgoing counterparts keeps no names and
// is aborted even while all of them are still running (the census in
// internal/interleave counts these as "before-any-commit"). The opt-in basic
// detector has it everywhere: it aborts every transaction that has both an
// incoming and an outgoing conflict, whoever committed. Desynchronising the
// loops lets one slip through and commit; its SIREAD locks then drain and
// the structure dissolves.
func (db *DB) RunRetry(iso Isolation, fn func(*Txn) error) error {
	for attempt := 0; ; attempt++ {
		err := db.Run(iso, fn)
		if err == nil || !Retryable(err) {
			return err
		}
		if attempt > 0 {
			shift := attempt
			if shift > 7 {
				shift = 7
			}
			ceil := time.Duration(1<<shift) * 8 * time.Microsecond
			time.Sleep(time.Duration(rand.Int63n(int64(ceil))))
		}
	}
}

// retire is the core.Manager retire hook, the one place the engine reclaims
// what committed transactions kept once their commits precede every active
// snapshot: their locks (the SIREAD locks outlive the commit) and — a payload
// is the scratch Commit handed over with rows written or read — the versions
// they superseded and the reader words they set, a partition at a time across
// the batch, before the slots are freed. Page write
// stamps need no call here: the drain has already severed each writer's
// cell, and the next walk of a page it stamped folds it.
func (db *DB) retire(batch []core.Retired) {
	var p mvcc.Pruner
	for _, r := range batch {
		db.locks.ReleaseAll(r.Txn)
		if s, ok := r.Payload.(*txnScratch); ok {
			for _, row := range s.writes {
				p.Add(row, r.Txn.CommitTS())
			}
			for _, row := range s.reads {
				p.Clear(row, s.slot)
			}
		}
	}
	p.Flush()
	for _, r := range batch {
		if s, ok := r.Payload.(*txnScratch); ok {
			s.recycle() // no row names its slot any more
		}
	}
}

// VacuumStats reports what a DB.Vacuum pass reclaimed.
type VacuumStats struct {
	// VersionsPruned is the number of row versions cut out of version
	// chains (superseded before the OldestActiveSnapshot watermark).
	VersionsPruned int
	// StampWritersPruned is the number of page write-stamp entries this pass
	// dropped: retired writers' (whose commits precede every snapshot that
	// can still write, so no First-Committer-Wins check needs them) and
	// aborted writers'. Only a page untouched since those writers ended still
	// holds any. Always zero under GranularityRow, which keeps no page
	// stamps.
	StampWritersPruned int
}

// Vacuum synchronously walks every chain of every table against the current
// OldestActiveSnapshot watermark, reclaiming the row versions superseded
// before the oldest active snapshot, and folds the write-stamps of every page.
// It reclaims only below that watermark: a version superseded after the oldest
// active snapshot began stays until that snapshot ends, even when no active
// snapshot can read it. The walk
// takes each partition latch in short chunks, so concurrent transactions keep
// running. Neither needs Vacuum: a committed writer prunes what it superseded
// when it retires, and a page folds its retired writers' stamps whenever it
// is next read or written. The method exists for tests and as an operational
// lever.
func (db *DB) Vacuum() VacuumStats {
	// The page fold reads the record of each unsevered writer it walks: a
	// registered transaction keeps every record it can load from being
	// recycled under it (package core, "Record lifetime").
	guard := db.mgr.Begin(SnapshotIsolation)
	defer db.mgr.Abort(guard)
	var st VacuumStats
	for _, tb := range *db.tables.Load() {
		st.VersionsPruned += tb.data.Vacuum().VersionsPruned
		if tb.stamps != nil {
			st.StampWritersPruned += tb.stamps.prune()
		}
	}
	return st
}

// TableStats is a census of one table's partitioned row store.
type TableStats struct {
	// Shards is the partition count; Keys, Pages and KeyBytes (the bytes
	// the keys take in the partitions' key arenas, each key's length and its
	// bytes) are summed across partitions.
	Shards   int
	Keys     int
	Pages    int
	KeyBytes int
	// Cumulative since the table was created: Vacuum calls; row versions
	// pruned, by retiring writers and by Vacuum; page write-stamp entries
	// dropped (retired or aborted writers'), by the page reads and writes
	// that walk them and by Vacuum.
	VacuumRuns         uint64
	VersionsPruned     uint64
	StampWritersPruned uint64
	// VacuumKeyVisits counts the chains pruning walked — the
	// garbage-proportionality metric: one per row a retiring writer wrote,
	// however wide the table, plus every chain per Vacuum.
	VacuumKeyVisits uint64
	// ScanRounds counts the lock-coupled rounds of the table's finished
	// scans: each took the partition latches, emitted at most a round's
	// keys, and released them, so a writer waits for one round at most.
	ScanRounds uint64
}

// TableStats returns the partition/vacuum census for table name. Unlike the
// data operations, a census does not create the table: an unknown name
// returns zero stats.
func (db *DB) TableStats(name string) TableStats {
	tb := (*db.tables.Load())[name]
	if tb == nil {
		return TableStats{}
	}
	ts := tb.data.Stats()
	st := TableStats{
		Shards:          len(ts.Shards),
		Keys:            ts.Keys,
		Pages:           ts.Pages,
		KeyBytes:        ts.KeyBytes,
		VacuumRuns:      ts.VacuumRuns,
		VersionsPruned:  ts.VersionsPruned,
		VacuumKeyVisits: ts.VacuumKeyVisits,
		ScanRounds:      ts.ScanRounds,
	}
	if tb.stamps != nil {
		st.StampWritersPruned = tb.stamps.pruned.Load()
	}
	return st
}

// Stats is a census of internal state, used by tests to verify that
// suspended-transaction cleanup keeps bookkeeping bounded (thesis §4.6.1)
// and by benchmarks to report lock-wait behaviour.
type Stats struct {
	ActiveTxns int
	// SuspendedTxns counts committed transactions whose records are still
	// kept in the retirement queues: every committed writer, at any
	// isolation level, and every SerializableSI transaction holding SIREAD
	// locks or an outgoing conflict, until its commit is older than every
	// active snapshot. Retiring one releases its SIREAD locks, cuts its record
	// loose from the versions it wrote and prunes the versions it superseded.
	SuspendedTxns int
	LockedKeys    int
	LockOwners    int

	// Write-ahead log / durability instrumentation, cumulative since Open
	// (zero for in-memory databases with no simulated flush latency).
	// WALAppends counts commit records appended; GroupCommitBatches the
	// flushed batches; Fsyncs the physical syncs (one per batch); Avg-
	// BatchSize is WALAppends/GroupCommitBatches —
	// values above 1 are group commit working; RecoveryReplayed is the
	// number of log records rolled forward when this database was opened;
	// Checkpoints the checkpoint passes completed since Open.
	WALAppends         uint64
	GroupCommitBatches uint64
	Fsyncs             uint64
	AvgBatchSize       float64
	RecoveryReplayed   uint64
	Checkpoints        uint64

	// WAL health. The flusher's first I/O error is sticky: every commit
	// after it fails its durability wait, and the only recovery is reopening
	// the database. WALDegraded surfaces that state as a poll-able health
	// field (with WALErr the error text) so an operator — or the server's
	// stats endpoint — can see degraded durability without waiting for the
	// next commit to trip over it.
	WALDegraded bool
	WALErr      string

	// Lock-wait instrumentation, cumulative since Open. LockWaits counts
	// lock requests that found a blocker; LockSpinGrants the subset that
	// resolved during the lock manager's bounded spin; LockParks the subset
	// that slept on the wait queue; LockWakeups the targeted handoff
	// signals delivered (≈ one per granted parked request); LockTimeouts
	// the waits abandoned via Options.LockWaitTimeout; LockWaitTime the
	// cumulative parked duration.
	LockWaits      uint64
	LockSpinGrants uint64
	LockParks      uint64
	LockWakeups    uint64
	LockTimeouts   uint64
	LockWaitTime   time.Duration

	// Pruning activity, cumulative since Open, summed over tables (see
	// DB.TableStats for the per-table breakdown): Vacuum calls, and versions
	// pruned by retiring writers and by Vacuum.
	VacuumRuns     uint64
	VersionsPruned uint64

	// Read-only path instrumentation, cumulative since Open. ROBegins counts
	// transactions declared read-only at begin; ROSafePromotions the
	// read-only SSI transactions that reached a safe snapshot mid-flight and
	// dropped SIREAD acquisition; ROSIReadSkips the SIREAD lock acquisitions avoided by promoted
	// transactions (one per point read, one per scanned row plus its gap
	// per scan).
	ROBegins         uint64
	ROSafePromotions uint64
	ROSIReadSkips    uint64

	// Robustness-subsystem instrumentation, cumulative since Open.
	// ProgramRuns counts BeginProgram/RunProgram transactions; ProgramSIRuns
	// the subset admitted at plain SI under the robustness proof;
	// FootprintViolations the statements rejected for touching a table
	// outside their program's declared footprint; SDGEscalations the events
	// that tripped (or re-confirmed) the one-way escalated-to-SSI latch — a
	// footprint violation, or an ad-hoc begin.
	// SDGEscalated reports the latch itself.
	ProgramRuns         uint64
	ProgramSIRuns       uint64
	FootprintViolations uint64
	SDGEscalations      uint64
	SDGEscalated        bool
}

// StatsSnapshot returns current counters.
func (db *DB) StatsSnapshot() Stats {
	cs := db.mgr.StatsSnapshot()
	ls := db.locks.StatsSnapshot()
	var ws wal.Stats
	var walErr error
	if db.log != nil {
		ws = db.log.StatsSnapshot()
		walErr = db.log.Err()
	}
	var avgBatch float64
	if ws.Batches > 0 {
		avgBatch = float64(ws.Appends) / float64(ws.Batches)
	}
	var vruns, vpruned uint64
	for _, tb := range *db.tables.Load() {
		ts := tb.data.Stats()
		vruns += ts.VacuumRuns
		vpruned += ts.VersionsPruned
	}
	return Stats{
		VacuumRuns:       vruns,
		VersionsPruned:   vpruned,
		ROBegins:         db.roBegins.Load(),
		ROSafePromotions: db.roPromotions.Load(),
		ROSIReadSkips:    db.roSIReadSkips.Load(),

		ProgramRuns:         db.programRuns.Load(),
		ProgramSIRuns:       db.programSIRuns.Load(),
		FootprintViolations: db.footprintViolations.Load(),
		SDGEscalations:      db.sdgEscalations.Load(),
		SDGEscalated:        db.sdgEscalated.Load(),
		ActiveTxns:          cs.Active,
		SuspendedTxns:       cs.Suspended,
		LockedKeys:          ls.Keys,
		LockOwners:          ls.Owners,

		WALAppends:         ws.Appends,
		GroupCommitBatches: ws.Batches,
		Fsyncs:             ws.Fsyncs,
		AvgBatchSize:       avgBatch,
		RecoveryReplayed:   db.recovered.Load(),
		Checkpoints:        db.checkpoints.Load(),
		WALDegraded:        walErr != nil,
		WALErr:             errText(walErr),

		LockWaits:      ls.Waits,
		LockSpinGrants: ls.SpinGrants,
		LockParks:      ls.Parks,
		LockWakeups:    ls.Wakeups,
		LockTimeouts:   ls.Timeouts,
		LockWaitTime:   ls.WaitTime,
	}
}
