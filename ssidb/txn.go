package ssidb

import (
	"cmp"
	"errors"
	"math"
	"sync"
	"unsafe"

	"ssi/internal/core"
	"ssi/internal/lock"
	"ssi/internal/mvcc"
)

// Txn is one transaction. A Txn is intended for use by a single goroutine.
// After any abort-class error the transaction has been rolled back and every
// further operation returns ErrTxnDone.
//
// The handle is the caller's and stays a plain allocation, in the 24-byte
// size class (TestTxnHandleAllocBudget): a caller may keep it past the
// transaction's end, where it must go on answering ErrTxnDone rather than
// alias whichever transaction runs next. So it reaches the transaction's
// record and working memory, both in the scratch, only while the transaction
// runs — the record may be recycled for another transaction once this one
// ends (core.Manager.Release) — and answers everything after the end from its
// own fields.
type Txn struct {
	// txnScratch is everything the transaction needs only while it runs,
	// its record among it, recycled from transaction to transaction; nil
	// once done is set. Embedded, so a running transaction's tx.t, tx.db and
	// the rest read as its own.
	*txnScratch

	id       uint64 // the record's id, which ID reports after the end too
	iso      uint8  // the Isolation, narrowed to keep the handle in its class
	readOnly bool
	done     bool

	// roSafe caches a positive SnapshotSafe verdict for a transaction
	// declared read-only — a verdict is permanently sound for the holder — so
	// once set the SSI read paths skip SIREAD acquisition and conflict marking
	// for the rest of the transaction.
	roSafe bool
}

// txnScratch is the engine's working memory of one running transaction: its
// record, the database and program it runs against, the write set, the rival
// buffer of the point-operation lock paths, and the redo record with the slot
// the WAL hook answers into. Keeping all of it here rather than on the handle
// is what fits the handle, which outlives the transaction, in 24 bytes. A
// handle takes a scratch from txnScratchPool when it is built (newTxn) and is
// done with it when the transaction is (Commit, cleanupAbort). A committed
// writer hands it, write set and all, to its retirement (FinishWith;
// DB.retire prunes the rows and recycles it); every other transaction
// recycles it at once. So a steady-state transaction allocates none of this,
// and the collector's pool eviction is what bounds how much stays retained —
// except that a write set a bulk load grew beyond maxPooledWrites is dropped
// rather than pooled.
//
// Invariant: beyond its length every pointer-carrying buffer holds zero
// values (they are only ever truncated through emptied), and t, db and prog
// are nil, so a pooled scratch keeps no database, transaction record or table
// reachable; the byte buffers are merely truncated.
type txnScratch struct {
	// t is the transaction's record. The handle lets go of it, with the
	// scratch, at the end; a writer's retirement, which keeps the scratch,
	// finds it nil.
	t  *core.Txn
	db *DB

	// toutHi is what the snapshot's assignment said about it for the
	// safe-snapshot check (core.Manager.AssignSnapshotTout), which only a
	// declared read-only transaction asks.
	toutHi core.TS

	// prog, when non-nil, marks a program transaction (BeginProgram): every
	// access is checked against the program's declared table footprint, and
	// reads of promoted tables perform the §2.6.2 identity write.
	// progSIToken is the transaction's share of the DB's SI-program drain
	// counter, released exactly once when the transaction finishes.
	prog        *registeredProgram
	progSIToken bool

	// writes is the write set in statement order, for rollback: the handles
	// of the rows written, so undoing a write descends no tree.
	writes []mvcc.Row

	// slot names the transaction in the reader words of the rows reads
	// lists, which its end clears before it frees the slot (recycle).
	slot  uint32
	reads []mvcc.Row

	// rivals is the buffer lock.AcquireInto, TryAcquireInto and Probe
	// append conflicting holders into on the point paths (a row grant, a row
	// write's claims, lockPagePath), so only a transaction's first rival can
	// allocate. Each use empties it first and finishes consuming it before
	// the next operation reuses it. A scan's buffers live in the recycled
	// scanCtx.
	rivals  []*core.Txn
	pages   []uint32 // lockPagePath's buffer: the page-granularity descent path it locked in one latch hold
	blocked lock.Key // the row or gap a row write's claim was blocked on (rowLocker)

	// commit.redo accumulates the redo record (one encoded entry per write,
	// values copied at write time so later caller mutation of the value
	// slice cannot corrupt the log; empty when the database has no WAL).
	// Commit hands &commit to the WAL hook as CommitPrepareWith's argument;
	// nothing keeps the pointer once that call returns.
	commit commitState
}

var txnScratchPool = sync.Pool{New: func() any { return new(txnScratch) }}

// maxPooledWrites caps the write set a pooled scratch may keep — 64 KiB of
// row handles, as the WAL caps its recycled batch buffer.
const maxPooledWrites = 64 << 10 / int(unsafe.Sizeof(mvcc.Row{}))

// newTxn builds the handle of a transaction that has just begun — the one
// place a scratch is taken.
func (db *DB) newTxn(t *core.Txn) *Txn {
	s := txnScratchPool.Get().(*txnScratch)
	s.t, s.db = t, db
	return &Txn{txnScratch: s, id: t.ID(), iso: uint8(t.Isolation()), readOnly: t.ReadOnly()}
}

// finish marks the handle done and takes its record and scratch from it; the
// scratch no longer names the record.
func (tx *Txn) finish() (*core.Txn, *txnScratch) {
	s := tx.txnScratch
	t := s.t
	tx.done, tx.txnScratch, s.t = true, nil, nil
	return t, s
}

// recycle frees the reader slot, which no row may name, empties s and
// returns it to the pool.
func (s *txnScratch) recycle() {
	if s.slot != 0 {
		s.db.mgr.FreeReaderSlot(s.slot)
	}
	*s = txnScratch{
		writes: emptied(s.writes),
		reads:  emptied(s.reads),
		rivals: emptied(s.rivals),
		pages:  s.pages[:0],
		commit: commitState{redo: s.commit.redo[:0]},
	}
	if cap(s.writes) > maxPooledWrites || cap(s.reads) > maxPooledWrites {
		s.writes, s.reads = nil, nil
	}
	txnScratchPool.Put(s)
}

// ID returns the transaction identifier, before and after the end alike.
func (tx *Txn) ID() uint64 { return tx.id }

// Isolation returns the level the transaction runs at, before and after the
// end alike.
func (tx *Txn) Isolation() Isolation { return Isolation(tx.iso) }

// Snapshot returns the read timestamp, or 0 if no read has happened yet —
// and 0 once the transaction has ended, when the handle no longer holds its
// record.
func (tx *Txn) Snapshot() uint64 {
	if tx.done {
		return 0
	}
	return tx.t.Snapshot()
}

// ReadOnly reports whether the transaction was declared read-only at begin,
// before and after the end alike.
func (tx *Txn) ReadOnly() bool { return tx.readOnly }

// SafeSnapshot reports whether the transaction has been promoted to a safe
// snapshot (it reads SIREAD-free at plain-SI cost while remaining
// serializable). Declared read-only SerializableSI transactions promote
// mid-flight when their snapshot turns safe.
func (tx *Txn) SafeSnapshot() bool { return tx.roSafe }

// roFast reports whether the SSI read paths may skip SIREAD acquisition and
// conflict marking for this operation: the transaction is declared read-only
// and its snapshot is safe. The verdict is cached — it is permanently sound
// for this transaction (no still-running or future read-write transaction
// can commit a structure into the snapshot's past once none could at
// promotion time) — so the steady state is one boolean load.
func (tx *Txn) roFast() bool {
	if !tx.readOnly {
		return false
	}
	if tx.roSafe {
		return true
	}
	if tx.db.mgr.SnapshotSafe(tx.t, tx.toutHi) {
		tx.roSafe = true
		tx.db.roPromotions.Add(1)
		return true
	}
	return false
}

// pre guards every operation: it rejects finished transactions and applies
// the abort-early optimisation of thesis §3.7.1 (an unsafe pivot aborts at
// its next operation rather than at commit).
func (tx *Txn) pre() error {
	if tx.done {
		return ErrTxnDone
	}
	if tx.Isolation().TracksConflicts() {
		if err := tx.db.mgr.AbortEarly(tx.t); err != nil {
			if errors.Is(err, ErrTxnDone) {
				return err
			}
			return tx.fail(err)
		}
	} else if tx.t.Done() {
		return ErrTxnDone
	}
	return nil
}

// fail rolls the transaction back and passes err through.
func (tx *Txn) fail(err error) error {
	tx.cleanupAbort()
	return err
}

// cleanupAbort rolls back all writes, releases locks, retires the record.
func (tx *Txn) cleanupAbort() {
	if tx.done {
		return
	}
	t, s := tx.finish()
	for i := len(s.writes) - 1; i >= 0; i-- {
		s.writes[i].Rollback(t)
	}
	if len(s.reads) > 0 {
		var p mvcc.Pruner
		for _, row := range s.reads {
			p.Clear(row, s.slot)
		}
		p.Flush()
	}
	db, token := s.db, s.takeProgToken()
	s.recycle()
	db.mgr.Abort(t)
	db.locks.ReleaseAll(t)
	db.releaseProgToken(token)
	if r := db.opts.Recorder; r != nil {
		r.RecAbort(tx.id)
	}
	db.mgr.Release(t)
}

// takeProgToken takes the transaction's share of the robustness subsystem's
// drain counter, if it holds one, for releaseProgToken: exactly once, on
// whichever path finishes the transaction.
func (s *txnScratch) takeProgToken() bool {
	token := s.progSIToken
	s.progSIToken = false
	return token
}

// releaseProgToken returns a share takeProgToken took.
func (db *DB) releaseProgToken(token bool) {
	if token {
		db.siProgActive.Add(-1)
	}
}

// Abort rolls the transaction back. Aborting a finished transaction is a
// no-op. The returned error is always nil; it exists for interface symmetry.
func (tx *Txn) Abort() error {
	tx.cleanupAbort()
	return nil
}

// Commit commits the transaction: the dangerous-structure check and commit
// timestamp assignment happen atomically (thesis Figures 3.2/3.10), the
// redo record is appended to the WAL inside the same commit-serialization
// section (so log order equals commit order), the record is group-flushed,
// and blocking locks are released only after the batch's fsync returns (the
// ordering fix of thesis §4.4 — no other transaction may read this one's
// writes until they are durable). The transaction record is suspended if it
// must remain visible to future conflict detection (§3.3) — keep, below — or
// wrote anything (core.Manager.Finish's own rule), and dies when it retires:
// DB.retire then releases its SIREAD locks and prunes the versions its write
// set superseded.
func (tx *Txn) Commit() error {
	if tx.done {
		return ErrTxnDone
	}
	db := tx.db
	logged := tx.shouldLog()
	var slot any
	if logged {
		// The commit hook, running under tsMu inside CommitPrepareWith,
		// appends the record and stores its LSN back into this slot.
		slot = &tx.commit
	}
	ct, err := db.mgr.CommitPrepareWith(tx.t, slot)
	if err != nil {
		if errors.Is(err, ErrUnsafe) {
			tx.cleanupAbort()
		} else {
			db.releaseProgToken(tx.takeProgToken())
		}
		return err
	}
	var walErr error
	if logged {
		cs := &tx.commit
		if cs.err != nil {
			// The append itself was refused (closed log, timestamp
			// regression): no record was queued, so there is nothing to
			// wait for and the commit is not durable.
			walErr = cs.err
		} else {
			// The fsync wait happens outside every engine lock. On error the
			// commit is already published in memory but its durability is
			// unknown; the log error is sticky and is reported to this caller
			// and every subsequent durable commit.
			walErr = db.log.WaitDurable(cs.lsn)
			db.maybeCheckpoint()
		}
	} else if db.log != nil {
		// Nothing to log, but what the snapshot read may not be durable yet:
		// commits are visible once published under tsMu, before their fsync.
		// Wait for the log's last record as of the snapshot (readPoint; 0,
		// already durable, if the transaction took none). S2PL takes no
		// snapshot: its reads waited on writers' locks, which a writer
		// releases only once durable.
		walErr = db.log.WaitDurable(tx.commit.lsn)
	}
	t, s := tx.finish()
	db.locks.ReleaseBlocking(t)
	keep := tx.Isolation().TracksConflicts() && (db.locks.HoldsSIRead(t) || db.mgr.HasOutConflict(t))
	token := s.takeProgToken()
	var payload any // the scratch, handed to the retirement that reclaims its rows
	if len(s.writes) > 0 || len(s.reads) > 0 {
		payload = s
	} else {
		s.recycle()
	}
	db.mgr.FinishWith(t, keep, payload)
	db.releaseProgToken(token)
	if r := db.opts.Recorder; r != nil {
		r.RecCommit(tx.id, ct)
	}
	db.mgr.Release(t)
	return walErr
}

// markAsReader records rw-edges from this transaction to each concurrent
// writer (read path, Figure 3.4). Writers may be a page's active lock holders
// or the creators of versions newer than the one read.
func (tx *Txn) markAsReader(writers []*core.Txn) error {
	for _, w := range writers {
		if !tx.t.ConcurrentWith(w) {
			continue
		}
		if err := tx.db.mgr.MarkConflict(tx.t, w, tx.t); err != nil {
			return err
		}
	}
	return nil
}

// markAsWriter records rw-edges from each concurrent reader (an SIREAD
// holder, possibly already committed and suspended) to this transaction
// (write path, Figure 3.5 — including the overlap filter). This is the second
// fact the isolation level contributes: SI and S2PL writers find the same
// SIREAD holders on what they write but record nothing.
func (tx *Txn) markAsWriter(readers []*core.Txn) error {
	if !tx.Isolation().TracksConflicts() {
		return nil
	}
	for _, r := range readers {
		if !tx.t.ConcurrentWith(r) {
			continue
		}
		if err := tx.db.mgr.MarkConflict(r, tx.t, tx.t); err != nil {
			return err
		}
	}
	return nil
}

// recRead reports one key read to the recorder — the caller's key bytes or
// the store's key string, converted only if there is a recorder. The writer's
// id comes from its creator cell, which outlives its record — core.FrozenID
// once the version was frozen (Recorder). The caller passes the recorder: a
// scan's callback may end the transaction, after which the handle no longer
// reaches the database, while the scan still reports the rows it collected.
func recRead[K string | []byte](r Recorder, tx *Txn, tb *table, key K, creator *core.Cell, readTS core.TS) {
	if r == nil {
		return
	}
	var saw uint64
	if creator != nil {
		saw = creator.ID()
	}
	r.RecRead(tx.id, tb.name, string(key), saw, readTS)
}

// ---------------------------------------------------------------------------
// The two axes: isolation picks the lock mode, granularity the lock targets

// noLock is the read mode of lock-free snapshot reads; latest is the read
// point of locking reads, which see the newest committed version instead of
// a snapshot (and which no commit timestamp exceeds, so First-Committer-Wins
// never fires on it).
const (
	noLock lock.Mode = 0
	latest core.TS   = math.MaxUint64
)

// readMode is the first of the two facts the isolation level contributes to
// every operation: the lock mode its reads take — none at SnapshotIsolation,
// SIREAD at SerializableSI, Shared at S2PL. Writes are Exclusive everywhere.
// (The second fact, whether rivals found on those locks are recorded as
// rw-conflicts, is Isolation.TracksConflicts; see markAsWriter.)
func (tx *Txn) readMode() lock.Mode {
	switch tx.Isolation() {
	case SerializableSI:
		return lock.SIRead
	case S2PL:
		return lock.Shared
	}
	return noLock
}

// readLockMode is readMode for the next read: a declared read-only
// transaction on a safe snapshot is serializable without SIREAD protection,
// so its reads proceed lock-free at plain-SI cost. The safety verdict is
// about the snapshot, so readPoint comes first.
func (tx *Txn) readLockMode() lock.Mode {
	mode := tx.readMode()
	if mode == lock.SIRead && tx.roFast() {
		return noLock
	}
	return mode
}

// readPoint returns the timestamp reads run at: the snapshot — assigned now
// if this is the first need for one (deferred snapshot, thesis §4.5) — or
// latest for S2PL's locking reads.
func (tx *Txn) readPoint() core.TS {
	if tx.readMode() == lock.Shared {
		return latest
	}
	if ts := tx.t.Snapshot(); ts != 0 {
		return ts
	}
	ts, toutHi := tx.db.mgr.AssignSnapshotTout(tx.t)
	tx.toutHi = toutHi
	if l := tx.db.log; l != nil {
		// Every commit the snapshot sees appended its record under tsMu
		// before the snapshot's tick, so the log's last LSN now covers them
		// all: a commit that appends no record of its own waits for it.
		tx.commit.lsn = l.LastLSN()
	}
	return ts
}

// readStamp maps a read point to the recorder's readTS convention.
func (tx *Txn) readStamp(snap core.TS) core.TS {
	if snap == latest {
		return tx.db.mgr.Now()
	}
	return snap
}

// lockTargets is the granularity strategy, fixed once in open(): it decides
// which lock.Keys an operation covers and what unit First-Committer-Wins
// compares, while the bodies in this file decide when, in which mode and
// with which conflict marking — the algorithm of Figures 3.4-3.7, which is
// the same in both of the paper's prototypes. rowTargets (locks_row.go) is
// InnoDB's row + next-key gap locking, pageTargets (locks_page.go) Berkeley
// DB's page locking; doc.go tabulates what each operation gets from them.
//
// Point methods acquire through the transaction's scratch buffer; a scan
// locks the keys scanKeys names (Txn.scanLocked). Rivals found on SIREAD
// acquisitions (exclusive holders, on pages only: a row's or a gap's writer
// is found by its version) are marked by the method itself; rivals found
// for a write (SIREAD holders) are marked after the snapshot is assigned,
// because the overlap test needs it and a deferred snapshot comes after the
// write's locks.
type lockTargets interface {
	// read reads key at snap under mode on the targets of a point read,
	// taken before the read or atomically with it: a Get's SIRead or Shared,
	// or a locked read's Exclusive, which marks no reader. A locked read (at
	// latest until the transaction has a snapshot) then takes the deferred
	// snapshot, checks First-Committer-Wins and keeps the level's read lock.
	read(tx *Txn, tb *table, key []byte, mode lock.Mode, snap core.TS) (mvcc.ReadResult, error)
	// write writes key under the level's write protocol — locks, marking
	// (Figure 3.5), First-Committer-Wins, the install (row as above) — and
	// adds the row written to the write set, so that whatever it installed
	// is rolled back if it fails. A structural write also covers the gap it
	// splits, by a probe in its claim (row granularity: a key absent from
	// the index), or a page split (page granularity: an Insert, a Delete or
	// a key without a row). It returns
	// ErrKeyExists, which leaves the transaction usable and the row
	// unwritten (Txn.write then reads it), or an abort-class error.
	write(tx *Txn, tb *table, key []byte, row mvcc.Row, val []byte, tombstone, mustNotExist bool) error
	// scanKeys appends, in a round's flush, the keys covering what a scan
	// reads: the visited items and where the scan stopped, and, in a
	// collection's first round (from not nil), what it reads before its
	// first key; own, if not nil, is the scanning transaction's creator
	// cell, whose rows need no read lock of their own.
	scanKeys(keys []lock.Key, tb *table, from []byte, items []mvcc.ScanItem, end scanEnd, own *core.Cell) []lock.Key
	// scanNewerWriters appends the creators of versions newer than snap
	// among what items read, once keys (their scanKeys) are SIREAD-locked.
	scanNewerWriters(writers []*core.Txn, tb *table, snap core.TS, items []mvcc.ScanItem, keys []lock.Key) []*core.Txn
	// tableCreated is the one store-maintenance hook, for a new table. The
	// strategies need none at retirement: row mode keeps nothing beyond the
	// versions, and page mode folds a stamp once its writer's cell is severed.
	tableCreated(tb *table)
}

// ---------------------------------------------------------------------------
// Point reads

// Get reads key from table. Under SI and SerializableSI it reads from the
// transaction's snapshot; under S2PL it shared-locks and reads the latest
// committed version. found is false if the key is absent (or deleted) in the
// visible state.
//
// Ownership, for Get and GetForUpdate alike: val aliases the stored version.
// It is read-only, and its capacity equals its length, so appending to it
// copies rather than writing into the store (or into the spare capacity of the
// slice the writer stored, which every other reader of the version shares).
func (tx *Txn) Get(tableName string, key []byte) (val []byte, found bool, err error) {
	if err := tx.pre(); err != nil {
		return nil, false, err
	}
	if err := tx.progReadCheck(tableName); err != nil {
		return nil, false, err
	}
	tb := tx.db.table(tableName)
	res, err := tx.get(tb, key)
	if err != nil {
		return nil, false, err
	}
	if tx.prog != nil && tx.prog.promoted[tableName] && res.Found {
		// Runtime half of the Promote remedy (§2.6.2): re-write the value
		// just read, so a concurrent writer of this row collides under
		// First-Committer-Wins — the vulnerable rw edge becomes ww.
		if err := tx.write(tableName, key, append([]byte(nil), res.Value...), false, false); err != nil {
			return nil, false, err
		}
	}
	return res.Value, res.Found, nil
}

// get is the read of a statement that passed its checks — Get's, a refused
// Insert's: key read at the read point, under the level's read lock, with the
// rw-conflicts that read finds marked. An error has aborted the transaction.
func (tx *Txn) get(tb *table, key []byte) (res mvcc.ReadResult, err error) {
	snap := tx.readPoint()
	mode := tx.readLockMode()
	// A locking read is Figure 3.4 lines 2-7: the read and its lock, which
	// marks a page's concurrent exclusive holders.
	if mode == noLock {
		if tx.roSafe {
			tx.db.roSIReadSkips.Add(1)
		}
		res = tb.data.Read(tx.t, snap, key)
	} else if res, err = tx.db.targets.read(tx, tb, key, mode, snap); err != nil {
		return res, tx.fail(err)
	}
	if mode == lock.SIRead {
		// Figure 3.4 lines 8-9: the creators of newer versions.
		if err := tx.markAsReader(res.NewerWriters); err != nil {
			return res, tx.fail(err)
		}
	}
	recRead(tx.db.opts.Recorder, tx, tb, key, res.VisibleCreator, tx.readStamp(snap))
	return res, nil
}

// GetForUpdate reads key with an exclusive lock, like SELECT ... FOR UPDATE:
// the lock, then one read that waits out a writer still holding the row,
// takes the snapshot and checks First-Committer-Wins on the unit holding key.
// The lock is not a write: it marks no reader, and the read keeps its SIREAD
// unless the transaction writes the row (but makes no promotion write). As
// the snapshot follows the wait (thesis §4.5), a transaction whose first
// statement is a locked read never aborts under FCW. val is owned as Get's is.
func (tx *Txn) GetForUpdate(tableName string, key []byte) (val []byte, found bool, err error) {
	if err := tx.pre(); err != nil {
		return nil, false, err
	}
	if tx.readOnly {
		// A locked read takes exclusive locks and participates in
		// First-Committer-Wins as a writer would; read-only transactions
		// must use Get.
		return nil, false, ErrReadOnly
	}
	// A locked read is both a read and a write intent: the footprint must
	// declare the table in both directions.
	if err := tx.progReadCheck(tableName); err != nil {
		return nil, false, err
	}
	if err := tx.progWriteCheck(tableName); err != nil {
		return nil, false, err
	}
	tb := tx.db.table(tableName)
	at := cmp.Or(tx.t.Snapshot(), latest) // none yet, or S2PL, which takes none
	res, err := tx.db.targets.read(tx, tb, key, lock.Exclusive, at)
	if err != nil {
		return nil, false, tx.fail(err)
	}
	recRead(tx.db.opts.Recorder, tx, tb, key, res.VisibleCreator, tx.readStamp(tx.readPoint()))
	return res.Value, res.Found, nil
}

// ---------------------------------------------------------------------------
// Writes

// Put writes key=val. If the key has never existed, Put follows the insert
// protocol (gap locking) so that phantom detection covers upserts too.
//
// Ownership, for Put, Insert and Delete alike: key is only borrowed — the
// store copies it when (and only when) the call creates the row, so the
// caller may reuse or modify the slice as soon as the call returns. val is
// retained as the row's new version without copying and must not be modified
// afterwards.
func (tx *Txn) Put(tableName string, key, val []byte) error {
	return tx.write(tableName, key, val, false, false)
}

// Insert writes a new key, failing with ErrKeyExists (without aborting) if a
// live version of the key is already visible. A refused Insert read the key:
// it keeps that read, as a Get would take it (without the Get's promotion
// write). key is copied, val retained (see Put).
func (tx *Txn) Insert(tableName string, key, val []byte) error {
	return tx.write(tableName, key, val, false, true)
}

// Delete removes key by installing a tombstone version. Deleting an absent
// key is a no-op that still takes the insert-protocol locks (and leaves the
// key, copied, in the table's index). key is only borrowed (see Put).
func (tx *Txn) Delete(tableName string, key []byte) error {
	return tx.write(tableName, key, nil, true, false)
}

func (tx *Txn) write(tableName string, key, val []byte, tombstone, mustNotExist bool) error {
	if err := tx.pre(); err != nil {
		return err
	}
	if tx.readOnly {
		// Statement-level rejection, like ErrKeyExists: the transaction
		// stays usable for reads and may still commit. The core relies on
		// this gate — a declared read-only transaction must never reach the
		// write-lock or version-install paths.
		return ErrReadOnly
	}
	if len(key) > math.MaxUint16 || len(tableName) > math.MaxUint16 {
		return ErrKeyTooLong // appendRedoEntry writes both lengths in 16 bits
	}
	if err := tx.progWriteCheck(tableName); err != nil {
		return err
	}
	tb := tx.db.table(tableName)
	row, _ := tb.data.Locate(key)
	if err := tx.db.targets.write(tx, tb, key, row, val, tombstone, mustNotExist); err == ErrKeyExists {
		if res, err := tx.get(tb, key); err != nil {
			return err
		} else if !res.Found {
			// Deleted before the read fixed the snapshot (or S2PL's lock): claim again.
			return tx.write(tableName, key, val, tombstone, mustNotExist)
		}
		return ErrKeyExists
	} else if err != nil {
		return tx.fail(err)
	}
	if tx.db.log != nil {
		var flags byte
		if tombstone {
			flags = redoTombstone
		}
		tx.commit.redo = appendRedoEntry(tx.commit.redo, tb.name, key, val, flags)
	}
	if r := tx.db.opts.Recorder; r != nil {
		r.RecWrite(tx.id, tb.name, string(key), tombstone)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Scans

// Scan visits the live keys in [from, to) in ascending order, calling fn for
// each until fn returns false. A nil `to` scans to the end of the table.
// Key and value slices must not be modified or retained: they alias the
// store's own memory and are valid only until Scan returns. A value's capacity
// equals its length, as Get's does, so appending to it copies.
//
// The range is collected, locked and conflict-marked in full before fn sees
// its first row, into a scan context that is recycled from call to call
// (scanCtx), so a steady-state scan allocates nothing that grows with the
// range. fn may read, scan and write on the same transaction; what it writes
// does not show up in the rows it is still being handed.
//
// Predicate protection follows the isolation level: S2PL takes shared row
// and next-key gap locks (blocking inserts); SerializableSI takes SIREAD row
// and gap locks so concurrent inserts/deletes are detected as rw-conflicts
// (thesis §3.5); SI scans are lock-free and phantom-prone, as the paper
// permits.
func (tx *Txn) Scan(tableName string, from, to []byte, fn func(key, val []byte) bool) error {
	return tx.scan(tableName, from, to, 0, fn)
}

// ScanLimit is Scan bounded to the first limit live keys. The next-key
// protection covers exactly the scanned prefix plus the gap beyond the last
// visited key, which is the correct predicate lock for order-dependent
// queries such as "the minimum key in range" (TPC-C's Delivery picking the
// oldest undelivered order): an insert below the stop point is detected (or
// blocked), inserts beyond it cannot change the result.
func (tx *Txn) ScanLimit(tableName string, from, to []byte, limit int, fn func(key, val []byte) bool) error {
	if limit <= 0 {
		limit = 1
	}
	return tx.scan(tableName, from, to, limit, fn)
}

func (tx *Txn) scan(tableName string, from, to []byte, limit int, fn func(key, val []byte) bool) error {
	if err := tx.pre(); err != nil {
		return err
	}
	if err := tx.progReadCheck(tableName); err != nil {
		return err
	}
	tb := tx.db.table(tableName)
	if from == nil {
		from = []byte{}
	}
	snap := tx.readPoint()
	mode := tx.readLockMode()

	sc := scanCtxPool.Get().(*scanCtx)
	defer sc.release()
	if mode == noLock { // lock-free snapshot scan: plain SI, or a safe read-only snapshot
		sc.collect(tb, tx.t, snap, from, to, limit, nil)
	} else if err := tx.scanLocked(sc, tb, mode, snap, from, to, limit); err != nil {
		return tx.fail(err)
	}
	if tx.roSafe {
		// One SIREAD skipped per visited row plus the gap boundary.
		tx.db.roSIReadSkips.Add(uint64(len(sc.items)) + 1)
	}

	rec := tx.db.opts.Recorder
	var stamp core.TS
	if rec != nil {
		// The recorder reports the *claimed* predicate range (what the result
		// depends on): `to` for a full scan, the smallest exclusive bound
		// covering the last visited key for a scan that stopped at its limit.
		// The locked boundary (sc.end) may extend further, which is
		// conservative for detection but must not widen the claim.
		effTo := string(to)
		if sc.limited {
			effTo = sc.limitKey + "\x00"
		}
		stamp = tx.readStamp(snap)
		rec.RecScan(tx.id, tb.name, string(from), effTo, stamp)
	}
	// Promoted tables identity-write every row the caller was shown (the
	// scan-shaped half of §2.6.2); keys and values are copied out first —
	// the write path mutates the tree the scan buffers point into.
	promote := tx.prog != nil && tx.prog.promoted[tableName]
	var promoteKeys, promoteVals [][]byte
	for i := range sc.items {
		it := &sc.items[i]
		if rec != nil {
			recRead(rec, tx, tb, it.Key, it.VisibleCreator, stamp)
		}
		if it.Found {
			if promote {
				promoteKeys = append(promoteKeys, []byte(it.Key))
				promoteVals = append(promoteVals, append([]byte(nil), it.Value...))
			}
			if !fn(keyView(it.Key), it.Value) {
				break
			}
		}
	}
	for i, k := range promoteKeys {
		if err := tx.write(tableName, k, promoteVals[i], false, false); err != nil {
			return err
		}
	}
	return nil
}

// keyView returns the bytes of a key string the store handed out, without
// copying them — what a scan callback is shown in place of the store's own key
// string. This is the engine's one string→[]byte view, and the store's keys
// are the only thing it may be applied to. Strings are immutable to the
// compiler and the runtime, and the store relies on it too (the B+tree's
// order, every lock named by the string); the view is sound because Scan's
// contract already forbids its callback to modify or retain the key, exactly
// as it did while the store kept []byte keys, and because a stored key is
// always a heap copy made by the tree (never a constant in read-only memory),
// so a caller that breaks the contract corrupts the table it was told not to
// touch rather than faulting the process.
func keyView(stored string) []byte {
	return unsafe.Slice(unsafe.StringData(stored), len(stored))
}

// scanLocked collects the range under mode, SIRead or Shared, one
// lock-coupled round at a time: the store's flush callback runs while the
// round's partition latches are still held, and inserts need the write
// latch, so each round's slice of the range is locked atomically with being
// read, and inserts between rounds are caught either by the locks already
// taken (behind the frontier) or by the resumed merge itself (ahead of it);
// see mvcc.ScanWith for the full invariant. SIREAD never blocks: a round
// takes its keys in one lock-table critical section. Shared locks can, and
// none is waited for latched (shareRound): the first that would wait ends
// the collection, and the scan waits for it unlatched and collects again
// from `from`, finding the locks it took already held. Conflict marking is
// deferred to after the scan, because an unsafe verdict aborts the
// transaction, which must not happen latched. A row scan marks only its
// items' newer writers: a row or gap SIREAD reports none.
func (tx *Txn) scanLocked(sc *scanCtx, tb *table, mode lock.Mode, snap core.TS, from, to []byte, limit int) error {
	lt := tx.db.targets
	var own *core.Cell
	if len(tx.writes) > 0 {
		own = tx.t.Cell() // made by the first write
	}
	for {
		flushed := 0 // items already covered by an earlier round
		var blocked bool
		var key lock.Key
		var holder *core.Txn
		start := from // the first round's flush also covers from's descent
		sc.collect(tb, tx.t, snap, from, to, limit, func(exhausted bool) bool {
			end := sc.end
			end.atEnd = exhausted
			round := sc.items[flushed:]
			flushed = len(sc.items)
			sc.keys = lt.scanKeys(emptied(sc.keys), tb, start, round, end, own)
			start = nil
			if mode == lock.Shared {
				key, holder, blocked = tx.shareRound(round, sc.keys)
				return !blocked
			}
			sc.writers = tx.db.locks.AcquireSIReadBatchInto(tx.t, sc.keys, sc.writers)
			sc.writers = lt.scanNewerWriters(sc.writers, tb, snap, round, sc.keys)
			return true
		})
		if !blocked {
			return tx.markAsReader(sc.writers)
		}
		if err := tx.waitFor(holder, key, lock.Shared); err != nil {
			return err
		}
	}
}

// shareRound takes Shared on keys, a round's scanKeys, one at a time in key
// order, and returns the first it cannot take without waiting: key, held by
// another transaction's lock or, if holder is not nil, by holder's version.
// A row's lock includes its head version, which may still hold the row for
// its writer: the round's read of the row decides it by the rule a point
// read's does (headHolder). A page writer holds its leaf Exclusive, so at
// page granularity the locks are the whole story.
func (tx *Txn) shareRound(items []mvcc.ScanItem, keys []lock.Key) (key lock.Key, holder *core.Txn, blocked bool) {
	i := 0
	for _, k := range keys {
		if _, ok := tx.db.locks.TryAcquireInto(tx.t, k, lock.Shared, nil); !ok {
			return k, nil, true
		}
		if k.Kind != lock.Row {
			continue
		}
		for items[i].Key != k.K {
			i++ // to k's item, past the rows the scanner wrote, which take none
		}
		if w := tx.headHolder(&items[i].ReadResult, latest); w != nil {
			return k, w, true
		}
	}
	return lock.Key{}, nil, false
}

// scanEnd is where a scan (or one round of it) stopped.
type scanEnd struct {
	key     string // first key at or beyond the range, the gap boundary, if reached
	page    uint32 // key's leaf page
	reached bool
	atEnd   bool // the scan ran off the end of the table instead
}

// scanCtx is the memory of one Scan call: the collected range, where it
// stopped, and the buffers a locking scan's rounds fill. Every scan — SI, safe read-only, SerializableSI and S2PL, row and
// page granularity — takes one from scanCtxPool when it starts and hands it
// back when it returns, so a steady-state scan allocates nothing that grows
// with its range — including a transaction's first and only scan. A scan
// nested in another's callback takes a context of its own. The range is
// still materialised in full before the callback sees a row; the pool
// recycles that memory instead of leaving it to the garbage collector, and
// the collector's pool eviction is what bounds how much stays retained.
//
// Invariant: beyond its length every buffer holds zero values (buffers are
// only ever truncated through emptied), so a pooled context keeps no
// transaction record, version data or tree key reachable.
type scanCtx struct {
	items []mvcc.ScanItem
	end   scanEnd
	// limitKey is the last visible key of a collection that stopped because
	// it reached its limit (limited).
	limitKey string
	limited  bool

	keys    []lock.Key  // the current round's lock set
	writers []*core.Txn // rw-conflict targets found, marked once unlatched
}

var scanCtxPool = sync.Pool{New: func() any { return new(scanCtx) }}

// emptied returns s truncated to no elements, with the elements it held
// zeroed so the backing array no longer references them.
func emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
}

func (sc *scanCtx) release() {
	*sc = scanCtx{items: emptied(sc.items), keys: emptied(sc.keys), writers: emptied(sc.writers)}
	scanCtxPool.Put(sc)
}

// collect gathers keys in [from, to) — including keys whose visible state is
// absent, which still carry conflict information — plus the first key at or
// beyond the range (the gap boundary), in lock-coupled rounds under the
// partition latches; flush, if non-nil, runs at the end of each round with
// the latches still held, and ends the collection if it returns false. With
// a positive limit, collection stops after `limit` visible items.
func (sc *scanCtx) collect(tb *table, t *core.Txn, snap core.TS, from, to []byte, limit int, flush func(exhausted bool) bool) {
	sc.items, sc.end, sc.limitKey, sc.limited = emptied(sc.items), scanEnd{}, "", false
	found := 0
	lastFound := ""
	tb.data.ScanWith(t, snap, from, func(it mvcc.ScanItem) bool {
		pastEnd := len(to) > 0 && it.Key >= string(to)
		if pastEnd || (limit > 0 && found >= limit) {
			sc.end.key, sc.end.page, sc.end.reached = it.Key, it.Page, true
			return false
		}
		sc.items = append(sc.items, it)
		if it.Found {
			found++
			lastFound = it.Key
		}
		return true
	}, flush)
	sc.end.atEnd = !sc.end.reached
	if limit > 0 && found >= limit {
		sc.limitKey, sc.limited = lastFound, true
	}
}
