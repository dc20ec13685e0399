// Package core implements the transaction heart of Serializable Snapshot
// Isolation (SSI) as described in Cahill, Fekete and Röhm, "Serializable
// Isolation for Snapshot Databases" (SIGMOD 2008; Cahill's 2009 thesis).
//
// It provides transaction records with begin/commit timestamps, snapshot
// assignment (including the deferred-snapshot optimisation of thesis §4.5),
// the rw-antidependency conflict marking of thesis Figures 3.3 and 3.9, the
// commit-time dangerous-structure checks of Figures 3.2 and 3.10, and the
// suspended-transaction lifecycle of §3.3: transactions that commit holding
// SIREAD locks stay visible to conflict detection until every concurrent
// transaction has finished — and then their records die ("Record lifetime").
//
// # Beyond the paper's kernel mutex
//
// The thesis prototypes realise the paper's "atomic begin ... atomic end"
// sections with one global latch (InnoDB's kernel mutex), through which every
// begin, snapshot, conflict mark and commit serialises. This Manager splits
// that latch along the lines that let PostgreSQL's SSI scale (Ports &
// Grittner, VLDB 2012):
//
//   - The logical clock is an atomic counter; Now is a plain atomic load.
//   - tsMu is the commit-serialization point: the only section that must be
//     globally ordered is "tick the clock, publish commitTS and status" (at
//     commit) against "tick the clock, adopt a snapshot" (at first read), so
//     that a snapshot observes every commit with a smaller timestamp fully
//     published. It spans three atomic operations and nothing else.
//   - The rw-antidependency state (Txn.in/out) is per-transaction: atomic
//     references mutated only under the owning transaction's tiny conflict
//     mutex (Txn.csMu). MarkConflict locks just the two transactions on the
//     edge (in id order); AbortEarly's per-operation §3.7.1 probe is two
//     atomic loads and takes no mutex at all unless a dangerous structure
//     already exists. See "Conflict-state memory ordering" below for why the
//     commit-time check can never miss an edge racing with commit.
//   - The active-transaction registry is hash-sharded by transaction id;
//     each shard maintains an atomic minimum-snapshot watermark, so
//     OldestActiveSnapshot is a handful of atomic loads instead of a scan
//     under a global lock.
//
// # Conflict-state memory ordering
//
// The predecessor of this design guarded every Txn.in/out reference with one
// global mutex (csMu), taken by every SSI operation's abort-early probe —
// a system-wide serialization point on the level's hottest path. The
// per-transaction protocol keeps the Figures 3.2/3.10 atomicity with local
// coordination only, resting on three invariants:
//
//  1. A transaction's in/out references change only while its csMu is held.
//     MarkConflict holds both endpoints' mutexes (ordered by id, so edge
//     installs cannot deadlock); CommitPrepare and the abort-early slow path
//     hold the single transaction's. Hence MarkConflict serializes with the
//     commit-time dangerous-structure check of either endpoint: an edge
//     installed before the check is seen by the check, and an install that
//     serializes after it finds the endpoint committed (status and commitTS
//     are published before csMu is released) and applies the committed-pivot
//     rules of Figures 3.3/3.9 instead. An edge racing with commit is
//     therefore seen by at least one of the two checks — the atomicity the
//     paper's "atomic commit section" exists to provide.
//  2. Lock-free readers (AbortEarly's fast path, HasInConflict/HasOutConflict)
//     may observe a reference as nil that a racing MarkConflict is about to
//     install. That is the same outcome as the reader running entirely
//     before the edge existed: safe, because the commit-time check under
//     csMu and tsMu is the authoritative one; abort-early is only the §3.7.1
//     optimisation that usually fires sooner.
//  3. Checks read third-party commit timestamps (commitTime of a reference)
//     without that third party's mutex. A single such load is sound because
//     commitTS transitions once, 0 → final, with sequentially-consistent
//     atomics, and the clock is monotone: a timestamp not yet visible at
//     check time can only materialise as a timestamp allocated later, i.e.
//     larger than every timestamp the check did observe — which is exactly
//     the "committed later" verdict the conservative infinity stands for.
//     When a check compares TWO third-party timestamps (the Figure 3.10
//     commit-time test), the pair is not an atomic snapshot, and order
//     matters: the incoming side is read first, so a finite inCT is still
//     exact when outCT is read (finality) and an infinite inCT is
//     conservative regardless of outCT. Reading the outgoing side first
//     would let both counterparts commit between the loads and produce a
//     "safe" outCT = ∞ / finite-inCT pair no atomic evaluation allows —
//     see dangerous. An identified outgoing counterpart observed
//     uncommitted yields "safe" (it cannot have committed first). That is
//     provisional at abort-early; at commit, stampIfSafe evaluates under
//     tsMu — where every stamp publishes status and timestamp — just before
//     t's own timestamp is allocated, so no Tout can commit in between.
//
// # The dangerous-structure rules
//
// One predicate, dangerous(pivot, in, out), decides every structure
// Tin -rw-> pivot -rw-> Tout; its comment carries the rules and why each keeps
// Theorem 1. They are commit ordering (CO: dangerous only if Tout committed
// before both Tin and the pivot) and the read-only rule (RO: if Tin writes
// nothing, only if ct(Tout) < snap(Tin)). Both need a named counterpart, so
// under DetectorBasic, whose references never name one (named), neither
// applies and a structure is dangerous as soon as both edges exist.
// Four sites can complete a structure, and the victim is always the
// transaction running at that site:
//
//	site                         pivot      Tin / Tout as seen there            rules that can fire
//	reader-side: MarkConflict    committed  Tin = the caller, running; Tout =   CO; RO if the caller is
//	  finds the writer committed writer     writer's out, or its outCT          declared read-only
//	writer-side: MarkConflict    committed  Tin = reader's in; Tout = the       none — a running Tout has
//	  finds the reader committed reader     caller, running                     not committed first (the
//	                                                                            basic detector, naming no
//	                                                                            Tout, aborts here)
//	abort-early: each operation  the caller its in and out references           CO; RO if Tin is declared,
//	  of a pivot with both edges                                                or committed without a cell
//	commit: CommitPrepare under  the caller the same, just before the stamp     the same; under tsMu
//	  csMu and tsMu                                                             "Tout still running" is final
//
// What the references cannot say, and the predicate therefore decides
// conservatively:
//
//   - A Tin that is still running and undeclared. It may yet write, so RO does
//     not apply, although most such transactions commit having written
//     nothing. Letting the pivot commit on condition that Tin stays read-only
//     needs a hand-off (Tin doomed at its first write) the engine lacks: the
//     victim is always the caller.
//   - Several counterparts on one side. The reference degrades to a
//     self-reference, which on the outgoing side reads "earliest possible": a
//     pivot with two running Touts is aborted although neither has committed.
//     This is the one way an abort can precede every commit of the
//     transactions involved — the progress hazard ssidb.RunRetry's jitter
//     exists for — and exact per-counterpart timestamps would remove it.
//
// # Declared read-only transactions
//
// A transaction begun with BeginTx(iso, readOnly=true) promises never to
// write, which removes it from one side of the dangerous structure
// Tin →rw Tpivot →rw Tout (Ports & Grittner, VLDB 2012): an outgoing
// rw-edge T →rw U means U wrote a newer version of something T read, and a
// pivot or Tout role requires the transaction to have written — so a
// read-only transaction can appear only as Tin, never as the pivot or Tout.
// The invariants above extend to the read-only case as follows:
//
//  4. A read-only transaction's in reference is always nil (nothing ever
//     calls MarkConflict with it as the writer, because it never writes),
//     and MarkConflict skips installing its out reference: with in ≡ nil
//     the pivot tests of Figures 3.2/3.10 are vacuously false, so the
//     reference would only ever be read by those tests and never change a
//     verdict. Dropping it makes AbortEarly a pure status probe and
//     CommitPrepare pure commit publication (stampCommitted) for read-only
//     transactions — no csMu, no re-check — without weakening invariant 1:
//     the edges that matter, the writer.in installs naming the read-only
//     reader, are recorded exactly as before, so a pivot endangered by
//     read-only reads still aborts at *its* commit check (the read-only
//     anomaly case), and the committed-pivot abort rules in MarkConflict
//     still fire against the read-only caller.
//
// # Safe snapshots
//
// A snapshot S is *safe* for read-only use when no dangerous structure
// Tro →rw W →rw Tout with ct(Tout) < S can ever exist (Ports & Grittner's
// read-only rule: Tout must commit before the reader's snapshot to close
// the cycle): a reader on a safe snapshot is never part of an MVSG cycle,
// so it needs no SIREAD locks and no conflict edges at all. Two
// observations bound the threats. First, Tro →rw W requires W's newer
// write to be invisible at S, i.e. W commits after S (or never); and
// W →rw Tout with ct(Tout) < S requires W's snapshot < ct(Tout) < S — so
// only read-write transactions with snapshot below S can threaten S.
// Second, such a pivot's commit necessarily carries its outgoing edge: if
// ct(Tout) < ct(W), the edge install serialized before W's commit section
// under csMu (had it serialized after, Tout's commit stamp would postdate
// W's — invariant 1), so W commits with out != nil. CommitPrepare
// therefore raises a global threat horizon (threatHi, a CAS-max of commit
// timestamps) whenever a conflict-tracking read-write transaction commits
// carrying an outgoing edge — a conservative superset of the dangerous
// pivots — *before* Finish deregisters the transaction from the registry.
// SnapshotSafe(S) then holds once
//
//	(OldestActiveRWSnapshot() > S  ||  OldestActiveRWSnapshot() ≥ toutHi(S))
//	&&  threatHi ≤ S
//
// where toutHi(S) is the newest read-write commit timestamp below S,
// captured exactly when S was allocated (both happen under tsMu, so nothing
// below S can commit afterwards; AssignSnapshotTout returns it to the owner,
// which passes it to SnapshotSafe). The watermark is read first: a pivot that
// already deregistered raised threatHi before deregistering, so the later
// threatHi load sees it; one still registered keeps the watermark ≤ S and
// is handled by the second disjunct, the *Tout-window refinement*. An
// active read-write W with snapshot below S threatens S only through a Tout
// committed inside (snap(W), S] — and that window's population was fixed
// the moment S existed. If the watermark (a floor below every active W's
// snapshot) is at or above toutHi(S), no Tout exists in any active elder's
// window, and none ever will: the elders are harmless to S forever, even
// though they are still running. Commits landing after S was allocated
// cannot block S's verdict — they are above S and outside every window.
// Without this refinement a safe verdict needs an instant with zero older
// read-write transactions, which under a sustained stream of short writers
// almost never occurs.
//
// A positive verdict is permanent for the holder: every remaining or
// future read-write transaction either has a snapshot above S (snapshots
// are unique clock ticks, and a transaction with snapshot > S cannot hold
// an outgoing edge to anything that committed before S — its snapshot
// would have seen the write), or is an already-running elder whose Tout
// window was verified empty. So no new threat to S can arise — which is
// what lets a promoted reader stay SIREAD-free for the rest of its life.
// The *predicate* itself is conservative, not sticky: threatHi records only
// commit timestamps, so a later harmless pivot (snapshot > S, commit > S)
// flips SnapshotSafe(S) back to false. Equivalently: for every commit
// carrying an out-edge (snap, ct) whose partner committed at ctPartner, and
// every S that ever verified safe, snap < S < ct with ctPartner ≤ S is
// impossible — the no-false-positive invariant the race test asserts.
// OldestActiveRWSnapshot mirrors OldestActiveSnapshot — per-shard atomic
// minima over the registered horizon constraints of non-read-only
// transactions, capped by the clock read first — and inherits its race
// argument: a constraint registered after its shard was inspected belongs
// to a snapshot allocated after the cap was read, hence above the returned
// horizon.
//
// # Record lifetime
//
// The paper keeps a committed transaction's record only "until every
// concurrent transaction has finished" (§3.3; thesis §4.6.1, eager cleanup).
// So does this package: the drain that retires a suspended transaction drops
// the last long-lived reference to its record. What makes that possible is
// that the row store never holds a *Txn. A version, and a page write stamp,
// points at its creator's Cell — 24 bytes: id, commit timestamp, and an
// atomic pointer to the record — which the owner allocates at its first
// write (a transaction that writes nothing has none), which the commit
// stamps under tsMu beside the record itself, and which the drain severs
// (rec = nil) for every transaction it retires. For the sever to happen at
// all, every transaction that created a cell is retired through a
// retirement queue: Finish suspends on keep || cell != nil, whatever the
// isolation level. A row a transaction read names it by a slot (ReaderSlot),
// not a *Txn, freed once no row names it.
//
// # Retirement
//
// Everything the horizon (OldestActiveSnapshot) frees is freed at one place.
// Finish appends the committed transaction, with an opaque payload the engine
// hands over, to the retirement queue of its own registry shard, kept in
// commit order under that shard's own mutex; no mutex shared by all shards is
// taken. Every transaction end (Finish, Abort), after its own registry
// removal and append, reads the horizon once and drains, on every shard, each
// entry whose commit precedes it: the cell is severed, then the retire hook
// (SetRetireHook) gets the record and the payload — the engine releases the
// SIREAD locks and prunes the versions the writer superseded there. A shard
// whose oldest entry the horizon has not passed costs one atomic load. The
// drain takes entries off a queue in short batches and hands each batch to
// the hook with no lock held, so drainers of one shard share it, an append
// never waits behind a hook, and the hook can batch its own work. A record
// once queued is recycled only after the hook has returned ("Recycling"
// below): the queue, the hook and the structures the hook releases it from
// hold it until then. The queue is of one type with the shard's limbo
// ("Recycling" below): stamped elements in stamp order, taken in batches.
//
// The last end of a quiescing workload leaves every queue empty. Let Y be the
// end whose registry removal is last: its horizon exceeds every commit. If
// Y's probe of a shard finds an entry, Y drains the shard to the end with that
// horizon; if it finds the shard empty, any entry appended later was appended
// by an end X after Y's probe, and X reads its horizon after its append, so
// after Y's removal — and drains it itself.
//
// Severing is safe by the drain's own condition. Who can need W's record
// through one of W's versions?
//
//   - A snapshot reader R needs it only for a version invisible to R — the
//     target of an rw-antidependency — i.e. W uncommitted (never drained: only
//     committed transactions are suspended), or ct(W) ≥ snap(R). R registered
//     a floor ≤ snap(R) in the registry before allocating the snapshot
//     (AssignSnapshot), and the drain retires W only when
//     ct(W) < OldestActiveSnapshot() ≤ floor(R) ≤ snap(R). So a severed
//     creator's version is visible to every active snapshot, and to every
//     future one (snapshots are clock ticks, later than ct(W)): it is never a
//     "newer writer" to anyone. The same inequality covers page stamps, whose
//     newer-writer test is ct(W) ≥ snap(R) and whose First-Committer-Wins
//     test is ct(W) > snap(R): neither passes on a severed writer.
//   - Locking reads (S2PL, FOR UPDATE) see every committed version and mark
//     nothing against its creator.
//   - Writers find their rivals — SIREAD holders, committed and suspended or
//     not — through the lock table, not through versions; First-Committer-
//     Wins and pruning need the commit timestamp, which the cell keeps.
//   - The history recorder needs the creator's id, which the cell keeps —
//     until the store freezes the version (Frozen): by the same inequality
//     every snapshot that reaches a frozen version selects it by timestamp
//     alone, so the recorder reports FrozenID and its checker resolves the
//     read to the newest recorded version at or before the read's timestamp.
//
// Freezing is what lets the cell itself die: the row store re-points a
// retired writer's surviving versions at the one shared Frozen cell when it
// prunes them, so once the drain has passed a writer and its page stamps have
// been dropped, nothing references its cell.
//
// An aborted transaction's cell is never severed (its versions are rolled
// back; a page stamp drops it at the page's next walk), so for a cell "no
// record" always means "committed, and visible to everyone" — which is what
// lets a page drop a severed writer's stamp.
//
// With versions out of the picture, these are the holders of a *Txn, and how
// long each holds it:
//
//   - the active registry, from Begin until Finish, Abort or an unsafe abort;
//   - its shard's retirement queue, from Finish until the drain that finds the
//     commit older than every active snapshot (under a pinned snapshot:
//     unbounded, which is the summary tier's job to fix), and not from the
//     queue's slack afterwards;
//   - the lock table's holder maps, until the engine's retire hook releases
//     its locks (SIREAD locks outlive the commit);
//   - the reader-slot table, from ReaderSlot until the slot is freed;
//   - partners' in/out references, until the partner is itself collected — a
//     suspended transaction only ever references itself or transactions that
//     commit no earlier than it (Figure 3.10 lines 9-12; of a counterpart that
//     committed earlier it keeps a timestamp, outCT, not a pointer), so chains
//     of them end at the active set;
//   - rival and newer-writer buffers in flight (lock.AcquireInto results,
//     mvcc.ReadResult.NewerWriters, a reader resolved from a slot, a waiter's
//     waits-for edges, the engine's recycled scratch, zeroed on release), for
//     the duration of one operation of a registered transaction;
//   - the engine's running transaction (the scratch the handle reaches it
//     through), until the transaction ends and the engine lets go of the
//     record (Release);
//   - its shard's limbo, from the release until the grace horizon passes it
//     ("Recycling" below).
//
// The record itself holds the transaction's lock bookkeeping as an owner
// (Locks: the keys it holds, its SIREAD count, its used and released flags),
// so that state lives exactly as long as the record and costs no allocation
// of its own.
//
// # Recycling
//
// Release recycles a record — zeroes it and returns it to the pool BeginTx
// draws from — once nobody can reach it. Only the registry and the engine hold
// every record. Every other holder is reached through something the record
// leaves behind, which core sees: the lock table through its lock state
// (marked used before its first lock), versions and page stamps through its
// cell, partners' references through MarkConflict (which marks both
// endpoints, marked), the retirement queue and the slot table through
// FinishWith and ReaderSlot (kept), and the in-flight buffers through the lock
// table, a cell or a slot. A record that ended with none of these — no cell,
// no lock state, never an endpoint of MarkConflict, not kept — was held by the
// registry, which dropped it at the end, and by the engine, which lets go of
// it; nobody else can ever have reached it, so Release recycles it at once. In
// practice these are the declared read-only readers promoted to a safe
// snapshot at their first read, and plain-SI transactions that only read.
//
// Any other record is recycled one grace horizon after nothing shared names it
// any more, once all three of these hold:
//
//   - The engine has let go of it (Release), which it does once the record's
//     locks and reader slot are released; and, if it was queued, the drain
//     that retired it has severed its cell and the retire hook, which releases
//     its SIREAD locks and its reader slot, has returned. Whichever of the two
//     comes second puts the record in its shard's limbo, a queue of the
//     retirement queue's type, stamped with a tick of the grace clock. From
//     then on no lock-table entry, slot, queue or cell names it (a cell left unsevered is an aborted writer's, and that
//     record is never recycled), so a transaction that begins afterwards
//     cannot reach it.
//   - Every transaction registered at that moment has ended: only such a
//     transaction can have found the record, and hold it in a buffer in
//     flight. The grace horizon (graceHorizon) is the minimum of the
//     registered transactions' begin stamps — the grace clock at BeginTx — over
//     every one of them, with a snapshot or not yet: a GetForUpdate holds its
//     rivals before its deferred snapshot, so the snapshot watermark cannot
//     stand for it. It is kept per registry shard beside minSnap and minRW,
//     and moves neither. Each transaction end and each Release sweeps limbo up
//     to it, and the last end of a quiescing workload empties limbo by the
//     argument that empties the retirement queues: a sweep reads the horizon
//     after its own appends.
//   - It is not marked, read under its csMu when it is recycled. A
//     transaction that held it in flight may have made it an endpoint of
//     MarkConflict after it was stamped, and a partner's reference may then
//     name it; csMu orders the read after every such MarkConflict. A marked
//     record is left to the collector: bounding partners' references by the
//     active set waits on the summary tier.
//
// Two other kinds of record keep the old lifetime and are left to the
// collector: an aborted writer, whose cell is never severed and which a page
// stamp may name until the page's next fold, so that a later transaction could
// still reach it; and a record whose locks were never released, which the lock
// table still names. So is a record that is never released at all (recovery's
// replay, the checkpoint's scan), and one a full limbo (limboMax) turns away.
//
// The horizon covers what registered transactions load. Four paths of the
// engine load a *Txn outside one:
//
//   - The retire hook's pruner cuts versions by their cells' commit
//     timestamps and clears reader words by slot number: it loads no record.
//     The hook's lock release walks the retiring record's own list — which is
//     not in limbo before the hook returns — and the holder maps of the
//     entries on it, whose waiters are registered transactions parked in an
//     operation.
//   - DB.Vacuum's walk of the row store reads cells only. Its page fold reads
//     records, and Vacuum registers a transaction of its own around the walk,
//     which the horizon covers.
//   - The checkpoint image writer scans inside a transaction it registered,
//     and so is covered like any reader.
//   - The page fold loads each stamped writer's record and reads whether it
//     aborted. Every fold but Vacuum's runs in an operation of a registered
//     transaction, and Vacuum's is covered by its own registration.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"ssi/internal/lockstate"
)

// TS is a logical timestamp drawn from the Manager's global clock. Begin and
// commit events each consume one tick, so all begins and commits are totally
// ordered and no two timestamps are equal.
type TS = uint64

// tsInfinity stands in for the commit time of a transaction that has not
// committed: it is later than every assigned timestamp.
const tsInfinity TS = math.MaxUint64

// Isolation selects the concurrency control algorithm for one transaction.
// Levels may be mixed freely within one database (thesis §2.6.3, §3.8): an
// S2PL reader blocks SI writers through the shared lock manager, and SI
// queries can run alongside Serializable SI updates.
type Isolation int

const (
	// SnapshotIsolation is plain SI: reads from a consistent snapshot,
	// write locks plus the First-Committer-Wins rule, no read locks and no
	// serializability guarantee.
	SnapshotIsolation Isolation = iota
	// SerializableSI is the paper's contribution: SI plus SIREAD locks and
	// rw-conflict tracking, aborting transactions that could form a
	// dangerous structure. All-SerializableSI histories are serializable.
	SerializableSI
	// S2PL is classical strict two-phase locking: shared locks for reads
	// (held to commit), exclusive locks for writes, deadlock detection.
	S2PL
)

// String returns the conventional abbreviation used throughout the paper.
func (i Isolation) String() string {
	switch i {
	case SnapshotIsolation:
		return "SI"
	case SerializableSI:
		return "SSI"
	case S2PL:
		return "S2PL"
	default:
		return fmt.Sprintf("Isolation(%d)", int(i))
	}
}

// TracksConflicts reports whether transactions at this level participate in
// SSI rw-dependency bookkeeping.
func (i Isolation) TracksConflicts() bool { return i == SerializableSI }

// Detector selects how precisely SSI tracks the conflicting transactions.
type Detector int

const (
	// DetectorPrecise — the zero value, and so the default — is the enhanced
	// algorithm of thesis §3.6 (Figures 3.9 and 3.10), as the InnoDB
	// prototype implemented it: single conflicts remember which transaction
	// they involve, and an abort is forced only when the outgoing side could
	// have committed first — eliminating the Figure 3.8 class of false
	// positives — plus Ports & Grittner's read-only rule for the incoming
	// side. "The dangerous-structure rules" in the package comment says which
	// rule applies where.
	DetectorPrecise Detector = iota
	// DetectorBasic is the boolean-flag algorithm of thesis §3.2: a
	// transaction with both an incoming and an outgoing rw-edge is aborted,
	// whoever committed when. It is the precise algorithm with references
	// that never name a counterpart (Manager.named): every edge is recorded
	// as a self-reference, so no rule that needs a partner's commit or
	// snapshot applies. It is what the Berkeley DB prototype implemented, and
	// it survives as the explicit opt-in of the runs that reproduce that
	// prototype's figures and of the two-detector tests.
	DetectorBasic
)

// Sentinel errors shared by the whole engine. Benchmark harnesses classify
// aborts with errors.Is against these, mirroring the paper's breakdown into
// deadlocks, update conflicts and unsafe errors (Figure 6.1(b) etc.).
var (
	// ErrUnsafe corresponds to Berkeley DB's DB_SNAPSHOT_UNSAFE and
	// InnoDB's DB_UNSAFE_TRANSACTION: committing would risk a
	// non-serializable execution, so the transaction was aborted.
	ErrUnsafe = errors.New("ssi: unsafe pattern of rw-conflicts (potential non-serializable execution)")
	// ErrWriteConflict corresponds to DB_SNAPSHOT_CONFLICT /
	// DB_UPDATE_CONFLICT: the First-Committer-Wins rule rejected an update
	// because a concurrent transaction committed a newer version.
	ErrWriteConflict = errors.New("ssi: write conflict (first-committer-wins)")
	// ErrDeadlock reports that the lock manager chose this transaction as a
	// deadlock victim.
	ErrDeadlock = errors.New("ssi: deadlock detected")
	// ErrLockTimeout reports that a blocked lock request waited longer than
	// the configured lock-wait timeout and was withdrawn; the transaction
	// is rolled back so a wedged lock holder cannot hang the system.
	ErrLockTimeout = errors.New("ssi: lock wait timeout exceeded")
	// ErrTxnDone reports use of a transaction after Commit or Abort.
	ErrTxnDone = errors.New("ssi: transaction already committed or aborted")
)

// Status is the lifecycle state of a transaction.
type Status int32

const (
	StatusActive Status = iota
	StatusCommitted
	StatusAborted
)

// Txn is one transaction's record. The record outlives commit when the
// transaction holds SIREAD locks, detected conflicts or wrote anything (it is
// "suspended", thesis §3.3) so that later operations by concurrent
// transactions can still find its conflict flags; once nobody can reach it
// any more, it is recycled for a later transaction (Release). See "Record
// lifetime" and "Recycling" in the package comment for who may hold one and
// until when.
//
// in/out implement the inConflict / outConflict state of the paper. A
// reference names the single conflicting transaction, degrading to a
// self-reference when there is more than one (thesis §3.6) or when the
// transaction commits after its counterpart did (Figure 3.10 lines 9-12;
// outCT then keeps what the reference stood for). DetectorBasic is the rule
// that never names a counterpart: its references are nil or self, meaning
// "flag set", and outCT stays 0.
// Both are written only under this transaction's csMu but read lock-free by
// the abort-early fast path; see the package comment's memory-ordering
// invariants.
//
// The layout is budgeted (TestTxnRecordAllocBudget): the record fills the
// 96-byte size class exactly, lock owner state included, which is what pays
// for the 24-byte Cell of a writer. What only the owner reads once — the
// safe-snapshot bound toutHi — is handed to the owner (AssignSnapshotTout)
// rather than kept here.
type Txn struct {
	id uint64

	beginTS  atomic.Uint64 // snapshot timestamp; 0 until assigned (§4.5 defers it)
	commitTS atomic.Uint64 // 0 until committed

	// One word: the lifecycle state beside four single-byte facts. The low
	// byte of status is the Status; above it, queuedBit and handedOff record
	// the hand-over of a queued record to limbo (Release).
	status atomic.Int32
	iso    uint8 // the Isolation level. Immutable.
	// readOnly marks a transaction declared read-only at begin. Immutable.
	// The engine above enforces the declaration (writes are rejected); the
	// core exploits it: no out-edge is ever installed (package comment,
	// invariant 4), the commit check degenerates to publication, and the
	// transaction is excluded from the read-write watermark that decides
	// snapshot safety.
	readOnly bool
	// marked records that the transaction was an endpoint of MarkConflict,
	// so a partner may hold a reference to it. Set under both endpoints'
	// csMu; recycle reads it under this one's.
	marked bool
	// kept records that FinishWith queued the transaction or it took a
	// reader slot: something other than the registry may have reached it.
	// Written and read by the owner's goroutine only.
	kept bool

	// csMu is this transaction's conflict-state mutex: it guards mutation
	// of in/out and makes the commit-time dangerous-structure check atomic
	// against concurrent edge installs. MarkConflict takes both endpoints'
	// mutexes in id order; everything else takes at most this one. It is
	// uncontended unless two transactions actually share an rw-edge.
	csMu sync.Mutex

	in  atomic.Pointer[Txn] // rw-edge into this txn, or self if several
	out atomic.Pointer[Txn] // rw-edge out of this txn, or self if several

	// outCT is what an out self-reference stands for: the commit timestamp of
	// the single outgoing counterpart that had committed when this
	// transaction did, or 0 for "several counterparts, earliest possible".
	// With commitTS it is the pair a committed transaction's rivals need of
	// it — its own commit and its earliest out-conflict's. Guarded by csMu.
	outCT TS

	// cell is what this transaction's versions point at; nil until its first
	// write (Cell). Written by the owner's goroutine; the commit stamp reads
	// it on that goroutine and the drain after taking t off the retirement
	// queue, whose mutex the owner took in Finish after the write.
	cell *Cell

	// locks is the lock manager's bookkeeping for this transaction as an
	// owner of locks (package lock), part of the record so that it needs no
	// owner registry and no allocation of its own. Its own mutex guards it,
	// separate from csMu: lock-table operations and conflict marking never
	// wait on each other. Only the lock manager touches it; core reads its
	// used flag, set by the owner's goroutine before its first lock, to tell
	// whether the lock table may name the record (Release).
	locks lockstate.Owner
}

// Cell is a writing transaction's creator cell: the three things a version
// ever needs from the transaction that created it — its id (wr-attribution),
// its commit timestamp (visibility, First-Committer-Wins, pruning) and, while
// some snapshot can still see the version as newer than its own, the record
// itself (the target of an rw-antidependency). Versions and page write stamps
// hold a *Cell, never a *Txn, so a version keeps these 24 bytes alive and not
// the record with everything it references — and only until its writer
// retires: the store then points the version at the Frozen cell instead, so a
// row that is never overwritten again pins no cell at all.
//
// commitTS goes 0 → final exactly once, stored under tsMu together with the
// record's own (stampLocked), so a snapshot sees every earlier commit's cell
// stamped. rec goes t → nil exactly once, in the drain that retires t, which
// happens after the stamp: a nil rec means "committed, and visible to every
// active and future snapshot" ("Record lifetime" in the package comment). An
// aborted transaction's cell is never severed.
type Cell struct {
	id       uint64
	commitTS atomic.Uint64
	rec      atomic.Pointer[Txn]
}

// FrozenID is the id of the Frozen cell. Transaction ids count up from 1, so
// it names no transaction.
const FrozenID = math.MaxUint64

// frozen is the one Frozen cell, a cache line of padding on either side: the
// versions of every cold row point at it, so their readers share lines nothing
// ever writes to.
var frozen struct {
	_ [64]byte
	Cell
	_ [64]byte
}

func init() {
	frozen.id = FrozenID
	frozen.commitTS.Store(1)
}

// Frozen returns the cell a version points at once its creator has retired
// (PostgreSQL's FrozenTransactionId): id FrozenID, commit timestamp 1 and no
// record. It stands in for the creator's own cell exactly. A version is frozen
// only when its creator's commit precedes every active snapshot, so every
// snapshot that can reach it is above that commit, which is at least 1 —
// visibility does not change; First-Committer-Wins compares a writer's
// snapshot, which is above the real commit too, against 1 and passes as
// before; and Txn is nil, as it already was once the creator was severed. Only
// the creator's id is lost, which the history recorder alone reads.
func Frozen() *Cell { return &frozen.Cell }

// ID returns the creating transaction's identifier.
func (c *Cell) ID() uint64 { return c.id }

// CommitTS returns the creating transaction's commit timestamp, or 0 if it
// has not committed (yet, or ever: it may have aborted).
func (c *Cell) CommitTS() TS { return c.commitTS.Load() }

// Txn returns the creating transaction's record, or nil once the transaction
// has been retired — by then its commit is visible to every snapshot, so no
// reader has a conflict to mark against it.
func (c *Cell) Txn() *Txn { return c.rec.Load() }

// Cell returns the transaction's creator cell, allocating it at the first
// call: a transaction that never writes never has one. Must be called from
// the owner's goroutine, before the version or stamp carrying the cell is
// published (under whatever latch publishes it).
func (t *Txn) Cell() *Cell {
	if t.cell == nil {
		c := &Cell{id: t.id}
		c.rec.Store(t)
		t.cell = c
	}
	return t.cell
}

// Locks returns the lock manager's bookkeeping for t, embedded in the record.
// The lock manager marks it used (lockstate.Owner.MarkUsed), on the owner's
// goroutine, before t takes its first lock.
func (t *Txn) Locks() *lockstate.Owner { return &t.locks }

// LockState returns the lock manager's bookkeeping for t, or nil if t never
// took a lock.
func (t *Txn) LockState() *lockstate.Owner {
	if !t.locks.Used() {
		return nil
	}
	return &t.locks
}

// ID returns the transaction's unique identifier.
func (t *Txn) ID() uint64 { return t.id }

// Marked reports whether t has been an endpoint of MarkConflict, so that a
// partner's reference may name it: such a record is never recycled (Release).
func (t *Txn) Marked() bool {
	t.csMu.Lock()
	defer t.csMu.Unlock()
	return t.marked
}

// Isolation returns the level the transaction runs at.
func (t *Txn) Isolation() Isolation { return Isolation(t.iso) }

// ReadOnly reports whether the transaction was declared read-only at begin.
func (t *Txn) ReadOnly() bool { return t.readOnly }

// Snapshot returns the transaction's read timestamp, or 0 if no snapshot has
// been assigned yet (no read has happened).
func (t *Txn) Snapshot() TS { return t.beginTS.Load() }

// CommitTS returns the commit timestamp, or 0 if the transaction has not
// committed.
func (t *Txn) CommitTS() TS { return t.commitTS.Load() }

// Status returns the current lifecycle state.
func (t *Txn) Status() Status { return Status(t.status.Load() & statusMask) }

// The bits of Txn.status above the Status. A queued record is let go of by two
// parties, the engine (Release) and the drain that retired it, in either
// order; each adds handedOff, and the one that makes it two puts the record in
// limbo.
const (
	statusMask int32 = 0xff
	queuedBit  int32 = 1 << 8 // FinishWith queued the record
	handedOff  int32 = 1 << 9 // a two-bit count of the parties that let go
)

// handOff reports whether the caller is the second of the two parties to let
// go of a queued record. The first must not touch the record afterwards.
func (t *Txn) handOff() bool { return t.status.Add(handedOff)&(2*handedOff) != 0 }

// Committed reports whether the transaction has committed. Visibility
// decisions combine this with CommitTS; both are atomically published by
// CommitPrepare before the committed status becomes observable.
func (t *Txn) Committed() bool { return t.Status() == StatusCommitted }

// Aborted reports whether the transaction has aborted.
func (t *Txn) Aborted() bool { return t.Status() == StatusAborted }

// Done reports whether the transaction has finished either way.
func (t *Txn) Done() bool { return t.Status() != StatusActive }

// ConcurrentWith reports whether the two transactions' lifetimes overlapped:
// neither committed before the other began. It implements the overlap test
// used throughout Chapter 3 ("rl.owner has not committed or
// commit(rl.owner) > begin(T)"). A transaction with no snapshot yet is
// treated as beginning in the future, so it cannot overlap anything that has
// already committed.
func (t *Txn) ConcurrentWith(u *Txn) bool {
	if t == u {
		return false
	}
	return !committedBefore(t, u) && !committedBefore(u, t)
}

// committedBefore reports whether a committed before b began.
func committedBefore(a, b *Txn) bool {
	act := a.CommitTS()
	if act == 0 {
		return false // a has not committed
	}
	bbt := b.Snapshot()
	if bbt == 0 {
		return true // b will begin after every already-assigned timestamp
	}
	return act < bbt
}

// regShard is one stripe of the active-transaction registry. Transactions
// hash to a shard by id; the shard records, for each active transaction, a
// conservative lower bound on its snapshot timestamp (0 until a snapshot is
// requested) and its begin stamp, and maintains the minima of those in
// atomics, so the global pruning watermark and the grace horizon are readable
// without any lock.
//
// Under retMu the shard also keeps two queues of one type: the retirement
// queue of the transactions that hash to it, by commit timestamp, and its
// limbo, the released records waiting for the grace horizon, by grace stamp
// ("Retirement" and "Recycling" in the package comment).
type regShard struct {
	mu       sync.Mutex
	active   map[*Txn]reg
	minSnap  atomic.Uint64 // min non-zero constraint, tsInfinity when none
	minRW    atomic.Uint64 // same, over read-write transactions only
	minBegin atomic.Uint64 // min begin stamp, tsInfinity when none

	retMu   sync.Mutex
	retired queue[Retired]
	limbo   queue[*Txn]
	// 128 bytes in all, a size class of its own: shards, each allocated on
	// its own, share no cache line.
}

// reg is what the registry keeps of an active transaction: its horizon
// constraint (0 = unconstrained) and its begin stamp, the grace clock when it
// began.
type reg struct{ snap, begin TS }

// queue is a registry shard's queue of elements waiting for a horizon to
// pass their stamps: items[head:], in stamp order, guarded by the shard's
// retMu. Taken slots are zeroed, and an emptied queue reuses its array from
// the front, so neither keeps an element reachable. first, the stamp of
// items[head] or tsInfinity when empty, is read without the mutex, so a
// drain passes a queue with nothing to take without taking it.
type queue[E any] struct {
	items []stamped[E]
	head  int
	first atomic.Uint64
}

// stamped is a queued element and its stamp.
type stamped[E any] struct {
	stamp uint64
	e     E
}

// len is the number of elements queued.
func (q *queue[E]) len() int { return len(q.items) - q.head }

// pushLocked inserts e in stamp order. Elements arrive in roughly stamp order
// (Finish calls run in roughly commit order; limbo's stamps are ticked under
// the mutex), so the insert is an append but for the few elements a later
// stamp overtook. Spent slots at the front are reused before the array grows.
func (q *queue[E]) pushLocked(stamp uint64, e E) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	s := append(q.items, stamped[E]{})
	i := len(s) - 1
	for ; i > q.head && s[i-1].stamp > stamp; i-- {
		s[i] = s[i-1]
	}
	s[i] = stamped[E]{stamp, e}
	q.items = s
	q.first.Store(s[q.head].stamp)
}

// takeLocked moves into out the elements at the front whose stamps precede
// h, up to len(out), zeroing their slots, and returns how many it took.
func (q *queue[E]) takeLocked(h uint64, out []E) int {
	s := q.items[q.head:]
	n := 0
	for ; n < len(out) && n < len(s) && s[n].stamp < h; n++ {
		out[n], s[n] = s[n].e, stamped[E]{}
	}
	if q.head += n; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
		q.first.Store(tsInfinity)
	} else {
		q.first.Store(q.items[q.head].stamp)
	}
	return n
}

// Retired is a suspended transaction as a drain hands it to the retire hook:
// the record, its creator cell already severed, and the payload the engine
// handed to FinishWith.
type Retired struct {
	Txn     *Txn
	Payload any
}

// retireBatch bounds how many entries a drain, or a sweep, takes off a queue
// per hold of its mutex, and so how many the retire hook gets per call.
const retireBatch = 32

// retiredBatches recycles the drains' batch buffers: a batch handed to the
// hook would escape to the heap if it lived on the drainer's stack.
var retiredBatches = sync.Pool{New: func() any { return new([retireBatch]Retired) }}

// retireFrom takes up to retireBatch entries the horizon h has passed off
// sh's queue, then severs their cells and hands the batch to the retire hook
// with no lock held. Each record the engine has already let go of (Release)
// goes to limbo once the hook has returned.
func (m *Manager) retireFrom(sh *regShard, h TS) {
	batch := retiredBatches.Get().(*[retireBatch]Retired)
	sh.retMu.Lock()
	n := sh.retired.takeLocked(h, batch[:])
	sh.retMu.Unlock()
	noteDrained(n)
	for _, r := range batch[:n] {
		if c := r.Txn.cell; c != nil {
			c.rec.Store(nil)
		}
	}
	if m.retireHook != nil && n > 0 {
		m.retireHook(batch[:n])
	}
	released := 0
	for _, r := range batch[:n] {
		if r.Txn.handOff() {
			batch[released] = Retired{Txn: r.Txn}
			released++
		}
	}
	if released > 0 {
		sh.retMu.Lock()
		for _, r := range batch[:released] {
			m.toLimboLocked(sh, r.Txn)
		}
		sh.retMu.Unlock()
	}
	clear(batch[:n])
	retiredBatches.Put(batch)
}

// drain retires, on every shard, each queued transaction whose commit
// precedes the horizon — read once, after the caller's own registry removal
// and append, which is what the quiesce argument in the package comment needs
// — and then recycles what the grace horizon lets go of (sweep).
func (m *Manager) drain() {
	h := m.OldestActiveSnapshot()
	for _, sh := range m.shards {
		for sh.retired.first.Load() < h {
			m.retireFrom(sh, h)
		}
	}
	m.sweep()
}

// limboMax bounds a shard's limbo. Only a long transaction holds records
// there for longer than a transaction takes; beyond the bound, a released
// record is left to the collector instead.
const limboMax = 1024

// toLimboLocked stamps t with a tick of the grace clock and puts it in sh's
// limbo, unless the limbo is full. The caller holds retMu, so stamps are in
// order along the queue.
func (m *Manager) toLimboLocked(sh *regShard, t *Txn) {
	if sh.limbo.len() < limboMax {
		sh.limbo.pushLocked(m.graceClock.Add(1), t)
	}
}

// sweep recycles, on every shard, each record in limbo whose stamp precedes
// the grace horizon, read after the caller's own appends to limbo. It takes
// them in batches and recycles each batch with no lock held.
func (m *Manager) sweep() {
	g := m.graceHorizon()
	var batch [retireBatch]*Txn
	for _, sh := range m.shards {
		for sh.limbo.first.Load() < g {
			sh.retMu.Lock()
			n := sh.limbo.takeLocked(g, batch[:])
			sh.retMu.Unlock()
			for _, t := range batch[:n] {
				recycle(t)
			}
		}
	}
}

// lowerMinLocked folds a new constraint into the shard watermarks: always
// into the global pruning minimum, and into the read-write minimum unless
// the transaction is declared read-only — long reports must not hold back
// each other's snapshot-safety verdicts.
func (sh *regShard) lowerMinLocked(t *Txn, ts TS) {
	if ts < sh.minSnap.Load() {
		sh.minSnap.Store(ts)
	}
	if !t.readOnly && ts < sh.minRW.Load() {
		sh.minRW.Store(ts)
	}
}

// recomputeMinLocked rebuilds the shard watermarks after a removal.
func (sh *regShard) recomputeMinLocked() {
	min, minRW, minBegin := tsInfinity, tsInfinity, tsInfinity
	for t, r := range sh.active {
		if r.begin < minBegin {
			minBegin = r.begin
		}
		if r.snap == 0 {
			continue
		}
		if r.snap < min {
			min = r.snap
		}
		if !t.readOnly && r.snap < minRW {
			minRW = r.snap
		}
	}
	sh.minSnap.Store(min)
	sh.minRW.Store(minRW)
	sh.minBegin.Store(minBegin)
}

// Manager owns the global transaction clock, the active transaction registry
// with its retirement queues, and the SSI conflict-detection logic. One
// Manager backs one database. See the package comment for how its
// synchronisation is split relative to the paper's single kernel mutex.
type Manager struct {
	detector Detector

	nextID atomic.Uint64
	clock  atomic.Uint64

	// graceClock ticks once per record put in limbo, and stamps it; a
	// transaction's begin stamp is its value at BeginTx. See graceHorizon.
	graceClock atomic.Uint64

	// tsMu is the commit-serialization point: it orders "tick clock,
	// publish commitTS+status" against "tick clock, adopt snapshot", so a
	// transaction whose snapshot is ts observes every commit with a smaller
	// timestamp fully published. Nothing else runs under it.
	tsMu sync.Mutex

	shards []*regShard
	mask   uint64

	// retireHook, when set, receives the suspended transactions a drain
	// retires, in batches; see SetRetireHook.
	retireHook func([]Retired)

	// threatHi is the safe-snapshot threat horizon: the largest commit
	// timestamp of any conflict-tracking read-write transaction that
	// committed carrying an outgoing rw-edge (a potential dangerous pivot).
	// Raised by CAS-max in CommitPrepare before the transaction leaves the
	// registry; see "Safe snapshots" in the package comment.
	threatHi atomic.Uint64

	// commitHook, when set, is invoked inside stampCommitted while tsMu is
	// held, immediately after the commit timestamp is published. The engine
	// uses it to append the transaction's redo record to the write-ahead
	// log: because the call happens under the commit-serialization mutex,
	// log order equals commit order and recovery is a straight
	// roll-forward. The hook must not block on I/O (the WAL append only
	// buffers; the fsync wait happens after tsMu is released). slot is the
	// committing caller's CommitPrepareWith argument — the engine's redo
	// payload going in and the record's LSN coming back — passed through
	// rather than parked on the record, so nothing of it outlives the call.
	commitHook func(t *Txn, ct TS, slot any)

	// lastRWCommit is the commit timestamp of the newest committed
	// read-write transaction — the newest possible Tout of a dangerous
	// structure. Stored (monotonically: the store happens under tsMu, in
	// commit order) by stampCommitted for non-read-only transactions only,
	// so a read-mostly workload of declared readers barely advances it. See
	// the Tout-window refinement under "Safe snapshots".
	lastRWCommit atomic.Uint64

	readers readerSlots // rows' registered readers, by slot (ReaderSlot)
}

// readerSlots is the table behind ReaderSlot: pages of record pointers that
// Reader loads without a lock, handed out under mu. 0 names no one.
type readerSlots struct {
	mu    sync.Mutex
	free  []uint32
	next  uint32
	pages atomic.Pointer[[]*[1 << 8]atomic.Pointer[Txn]]
}

func (rs *readerSlots) at(s uint32) *atomic.Pointer[Txn] {
	return &(*rs.pages.Load())[(s-1)>>8][(s-1)&255]
}

// ReaderSlot gives t a slot naming it (Reader) until FreeReaderSlot, or 0
// once 2³¹ are taken: what a row can hold of its reader where a pointer would
// grow it (package mvcc's reader word). t is not recycled at its end
// (Release) but through limbo: a writer may have resolved the slot and not
// yet marked t. Called on t's goroutine.
func (m *Manager) ReaderSlot(t *Txn) uint32 {
	rs := &m.readers
	rs.mu.Lock()
	defer rs.mu.Unlock()
	s := rs.next + 1
	switch n := len(rs.free); {
	case n > 0:
		s, rs.free = rs.free[n-1], rs.free[:n-1]
	case s == 1<<31:
		return 0
	default:
		if rs.next = s; (s-1)&255 == 0 { // a page's first slot
			pages := append(*rs.pages.Load(), new([1 << 8]atomic.Pointer[Txn]))
			rs.pages.Store(&pages)
		}
	}
	t.kept = true
	rs.at(s).Store(t)
	return s
}

// Reader returns the transaction slot names: the caller read slot off a row
// and resolves it under the same latch hold, before the owner can free it.
func (m *Manager) Reader(slot uint32) *Txn { return m.readers.at(slot).Load() }

// FreeReaderSlot returns slot, which no row names any more, for reuse.
func (m *Manager) FreeReaderSlot(slot uint32) {
	rs := &m.readers
	rs.at(slot).Store(nil)
	rs.mu.Lock()
	rs.free = append(rs.free, slot)
	rs.mu.Unlock()
}

// ShardCount is the shared shard-sizing policy for the engine's striped
// structures (this package's transaction registry, package lock's table):
// n rounded up to a power of two and clamped to [1, 256]. n <= 0 selects
// the default, the smallest power of two at or above 4×GOMAXPROCS —
// over-provisioned relative to the core count so that concurrent
// transactions rarely collide on a stripe.
func ShardCount(n int) int {
	if n <= 0 {
		n = 4 * runtime.GOMAXPROCS(0)
	}
	if n > 256 {
		n = 256
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FNV-1a, the shared shard-routing hash of the engine's hash-partitioned
// structures (package lock's table stripes, package mvcc's row-store
// partitions). Kept in one place so the routing function cannot silently
// diverge between them.
const (
	fnvOffset32 uint32 = 2166136261
	fnvPrime32  uint32 = 16777619
)

// Fnv32aInit returns the FNV-1a initial state.
func Fnv32aInit() uint32 { return fnvOffset32 }

// Fnv32aBytes folds b into h.
func Fnv32aBytes(h uint32, b []byte) uint32 {
	for _, c := range b {
		h ^= uint32(c)
		h *= fnvPrime32
	}
	return h
}

// Fnv32aString folds s into h without converting it to a byte slice.
func Fnv32aString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}

// Fnv32aByte folds one byte into h.
func Fnv32aByte(h uint32, b byte) uint32 {
	h ^= uint32(b)
	return h * fnvPrime32
}

// NewManager returns a Manager using the given conflict detector.
func NewManager(d Detector) *Manager {
	n := ShardCount(0)
	m := &Manager{
		detector: d,
		shards:   make([]*regShard, n),
		mask:     uint64(n - 1),
	}
	for i := range m.shards {
		sh := &regShard{active: make(map[*Txn]reg)}
		sh.minSnap.Store(tsInfinity)
		sh.minRW.Store(tsInfinity)
		sh.minBegin.Store(tsInfinity)
		sh.retired.first.Store(tsInfinity)
		sh.limbo.first.Store(tsInfinity)
		m.shards[i] = sh
	}
	m.readers.pages.Store(new([]*[1 << 8]atomic.Pointer[Txn]))
	return m
}

func (m *Manager) regShardOf(t *Txn) *regShard {
	return m.shards[t.id&m.mask]
}

// Begin starts a transaction at the given isolation level. No snapshot is
// assigned yet: per thesis §4.5 the read view is chosen lazily so that a
// transaction whose first statement is an update reads the post-lock state
// and can never abort under First-Committer-Wins for that statement.
func (m *Manager) Begin(iso Isolation) *Txn {
	return m.BeginTx(iso, false)
}

// BeginTx is Begin with the read-only declaration. A read-only transaction
// never installs an outgoing rw-edge, commits by pure publication, and is
// excluded from the read-write watermark consulted by SnapshotSafe (package
// comment, invariant 4 and "Safe snapshots"). The caller — the engine layer
// — is responsible for actually rejecting writes on it.
func (m *Manager) BeginTx(iso Isolation, readOnly bool) *Txn {
	t := recordPool.Get().(*Txn)
	t.id, t.iso, t.readOnly = m.nextID.Add(1), uint8(iso), readOnly
	begin := m.graceClock.Load()
	sh := m.regShardOf(t)
	sh.mu.Lock()
	sh.active[t] = reg{begin: begin}
	if begin < sh.minBegin.Load() {
		sh.minBegin.Store(begin)
	}
	sh.mu.Unlock()
	return t
}

// AssignSnapshot gives t its read timestamp if it does not have one yet and
// returns it. Safe to call repeatedly.
func (m *Manager) AssignSnapshot(t *Txn) TS {
	ts, _ := m.AssignSnapshotTout(t)
	return ts
}

// AssignSnapshotTout is AssignSnapshot also returning toutHi: the newest
// read-write commit timestamp below the snapshot, the newest possible Tout of
// a dangerous structure endangering it, which SnapshotSafe takes. It is
// captured exactly on the call that assigns the snapshot; a call that finds
// one assigned returns tsInfinity, for which SnapshotSafe waits for every
// older read-write transaction to end. The record does not keep it: only a
// declared read-only transaction's owner asks SnapshotSafe, so the owner keeps
// it.
func (m *Manager) AssignSnapshotTout(t *Txn) (ts, toutHi TS) {
	if ts := t.beginTS.Load(); ts != 0 {
		return ts, tsInfinity
	}
	sh := m.regShardOf(t)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ts := t.beginTS.Load(); ts != 0 {
		return ts, tsInfinity
	}
	// Publish a conservative horizon constraint *before* allocating the
	// snapshot: the clock can only grow, so floor ≤ ts, and a concurrent
	// OldestActiveSnapshot can never race past the snapshot we are about to
	// adopt. The floor, not ts, stays registered while t is active — at
	// most a few ticks conservative, and removal just deletes it.
	if r, ok := sh.active[t]; ok {
		r.snap = m.clock.Load() + 1
		sh.active[t] = r
		sh.lowerMinLocked(t, r.snap)
	}
	m.tsMu.Lock()
	ts = m.clock.Add(1)
	// Inside tsMu the capture is exact: lastRWCommit stores serialize with
	// this tick, so toutHi is precisely the newest read-write commit below
	// ts — nothing below ts can commit later.
	toutHi = m.lastRWCommit.Load()
	m.tsMu.Unlock()
	t.beginTS.Store(ts)
	return ts, toutHi
}

// deregister removes t from the active registry, updating the shard
// watermarks if t carried one of their minima.
func (m *Manager) deregister(t *Txn) {
	sh := m.regShardOf(t)
	sh.mu.Lock()
	if r, ok := sh.active[t]; ok {
		delete(sh.active, t)
		if r.begin == sh.minBegin.Load() || r.snap != 0 && (r.snap == sh.minSnap.Load() || (!t.readOnly && r.snap == sh.minRW.Load())) {
			sh.recomputeMinLocked()
		}
	}
	sh.mu.Unlock()
}

// stampCommitted is the commit-serialization point: it allocates the commit
// timestamp and atomically publishes it together with the committed status,
// so that any snapshot allocated afterwards sees the commit in full.
func (m *Manager) stampCommitted(t *Txn, slot any) TS {
	m.tsMu.Lock()
	ct := m.stampLocked(t, slot)
	m.tsMu.Unlock()
	return ct
}

// stampLocked is the body of the commit-serialization point; the caller
// holds tsMu. The creator cell, if t wrote anything, is stamped beside the
// record: readers of t's versions load the cell where they used to load the
// record, and tsMu orders that store before every later snapshot as it does
// the record's.
func (m *Manager) stampLocked(t *Txn, slot any) TS {
	ct := m.clock.Add(1)
	t.commitTS.Store(ct)
	if t.cell != nil {
		t.cell.commitTS.Store(ct)
	}
	t.status.Store(int32(StatusCommitted))
	if !t.readOnly {
		// Inside tsMu, so the store order matches commit order and the
		// value is monotone. Every committed read-write transaction counts
		// as a potential Tout, regardless of isolation — conservative for
		// mixed-level workloads.
		m.lastRWCommit.Store(ct)
	}
	if m.commitHook != nil {
		m.commitHook(t, ct, slot)
	}
	return ct
}

// stampIfSafe is stampCommitted preceded by the commit's one evaluation of
// the dangerous-structure predicate, under tsMu. Every stamp publishes status
// and commitTS inside tsMu, so there the partners' commit states form a
// consistent snapshot: an identified Tout uncommitted here is guaranteed a
// commit timestamp after t's, and the "safe" verdict it yields is final. A
// partner that aborted since t's last look only makes the verdict more
// lenient, and soundly so: its edges are void. Returns ok=false (no stamp
// taken) if the structure is dangerous; the caller aborts t. The caller holds
// t's csMu, so t's references are stable.
func (m *Manager) stampIfSafe(t *Txn, slot any) (TS, bool) {
	m.tsMu.Lock()
	defer m.tsMu.Unlock()
	if m.dangerous(t, t.in.Load(), t.out.Load()) {
		return 0, false
	}
	return m.stampLocked(t, slot), true
}

// Now returns the current clock value (the timestamp most recently issued).
func (m *Manager) Now() TS {
	return m.clock.Load()
}

// SetCommitHook installs fn to run inside the commit-serialization point
// (under tsMu, after the commit timestamp is published), with the slot the
// committing caller handed to CommitPrepareWith. Must be called before any
// transaction commits; fn must be fast and must not block on I/O.
func (m *Manager) SetCommitHook(fn func(t *Txn, ct TS, slot any)) {
	m.commitHook = fn
}

// AdvanceClock raises the clock to at least ts. Recovery uses it so that
// timestamps issued after a restart are strictly greater than every
// timestamp in the replayed log — preserving both snapshot visibility of
// recovered state and the WAL's monotone-timestamp invariant.
func (m *Manager) AdvanceClock(ts TS) {
	for {
		cur := m.clock.Load()
		if cur >= uint64(ts) || m.clock.CompareAndSwap(cur, uint64(ts)) {
			return
		}
	}
}

// MarkConflict records an rw-antidependency from reader to writer: reader
// read a version of some item older than a version created by writer, and
// the two transactions are concurrent. caller identifies which of the two is
// executing the operation that discovered the conflict; if the algorithm
// decides a transaction must abort it is always the caller (the other party,
// if endangered, is caught by its own commit-time check), and MarkConflict
// reports that by returning ErrUnsafe. The caller must then abort.
//
// This is Figure 3.3 (DetectorBasic) and Figure 3.9 (DetectorPrecise) of the
// thesis. Coordination is pairwise only: both endpoints' conflict mutexes
// are held, in id order, which serializes the install against either
// endpoint's commit-time check without any global lock.
func (m *Manager) MarkConflict(reader, writer, caller *Txn) error {
	noteMark()
	if reader == writer || reader == nil || writer == nil {
		return nil
	}
	lo, hi := reader, writer
	if hi.id < lo.id {
		lo, hi = hi, lo
	}
	lo.csMu.Lock()
	hi.csMu.Lock()
	defer hi.csMu.Unlock()
	defer lo.csMu.Unlock()
	reader.marked, writer.marked = true, true

	// Conflicts with aborted transactions are irrelevant (§3.7.1): an
	// aborted transaction's edges cannot appear in the MVSG.
	if reader.Aborted() || writer.Aborted() {
		return nil
	}
	m.dropAbortedRefsLocked(reader)
	m.dropAbortedRefsLocked(writer)

	// The new edge can complete a structure around an endpoint that has
	// already committed and will run no check of its own again (Figures 3.3
	// and 3.9); the running endpoint is the caller, and the only transaction
	// left to abort (§3.4).
	if writer.Committed() && m.dangerous(writer, m.named(writer, reader), writer.out.Load()) {
		// Reader-side: reader -> writer -> writer's Tout, the caller as Tin.
		return m.abortLocked(reader, caller)
	}
	if reader.Committed() && m.dangerous(reader, reader.in.Load(), m.named(reader, writer)) {
		// Writer-side: reader's Tin -> reader -> writer, the caller as Tout.
		// Only the basic detector ever fires here: a running Tout cannot have
		// committed first, but an unnamed one reads "earliest possible".
		return m.abortLocked(writer, caller)
	}

	// Record the edge on both endpoints. A declared read-only reader takes
	// no outgoing record: it writes nothing, so no transaction can read an
	// old version of its output, and it can never be the pivot of a
	// dangerous structure (invariant 4). The writer's incoming record is
	// installed regardless — the writer may yet become a pivot, and the
	// read-only anomaly aborts at that pivot's commit-time check.
	if !reader.readOnly {
		w := m.named(reader, writer)
		if rout := reader.out.Load(); rout == nil {
			reader.out.Store(w)
		} else if rout != w {
			reader.out.Store(reader) // several outgoing partners: degrade to flag
		}
	}
	r := m.named(writer, reader)
	if win := writer.in.Load(); win == nil {
		writer.in.Store(r)
	} else if win != r {
		writer.in.Store(writer)
	}
	return nil
}

// named is the reference t records for a conflict with partner, and the one
// place the detector is read. The precise detector names the partner; the
// basic one names nobody, so its references are nil or self, outCT stays 0,
// and dangerous — every rule of which needs a named counterpart — reduces to
// "both edges set", the §3.2 rule.
func (m *Manager) named(t, partner *Txn) *Txn {
	if m.detector == DetectorBasic {
		return t
	}
	return partner
}

// abortLocked marks victim aborted and removes it from the registry: every
// ErrUnsafe verdict (MarkConflict, AbortEarly, CommitPrepare) ends here. The
// victim must be the caller — the transaction executing the operation that
// discovered the conflict — and the error is returned for the caller to
// propagate while it rolls back. The caller holds the victim's csMu; the
// registry removal nests the shard mutex inside it (lock order: txn csMu →
// registry shard → tsMu).
func (m *Manager) abortLocked(victim, caller *Txn) error {
	if victim != caller {
		// Cannot happen per the analysis in §3.4: the endangered party is
		// committed, so the running caller is the one to abort. Guard
		// against regressions anyway.
		panic(fmt.Sprintf("core: conflict victim %d is not the caller %d", victim.id, caller.id))
	}
	victim.status.Store(int32(StatusAborted))
	m.deregister(victim)
	return ErrUnsafe
}

// dropAbortedRefsLocked clears conflict references whose counterpart
// aborted: an aborted transaction's versions are rolled back and its reads
// void, so its edges cannot participate in any MVSG cycle. Self-references
// (which stand for "several counterparts") stay, conservatively. The caller
// holds t's csMu.
func (m *Manager) dropAbortedRefsLocked(t *Txn) {
	if in := t.in.Load(); in != nil && in != t && in.Aborted() {
		t.in.Store(nil)
	}
	if out := t.out.Load(); out != nil && out != t && out.Aborted() {
		t.out.Store(nil)
	}
}

// commitTime returns t's commit timestamp, or tsInfinity if it has not
// committed. Reading a third party's commitTS without its mutex is sound —
// see invariant 3 of the package comment.
func commitTime(t *Txn) TS {
	if ct := t.CommitTS(); ct != 0 {
		return ct
	}
	return tsInfinity
}

// dangerous is the dangerous-structure predicate, the one place the engine
// decides whether in -rw-> pivot -rw-> out may close a cycle. Every site that
// can complete a structure asks it ("The dangerous-structure rules" in the
// package comment): MarkConflict around a committed endpoint, with the
// caller's new edge as one side; the pivot itself at each operation and,
// under tsMu, at commit, with its recorded references. in or out
// equal to pivot is a self-reference: several counterparts, or one the pivot
// outlived. The caller holds pivot's csMu.
//
// Three rules apply, each sound because in every cycle of an SI execution
// some structure's Tout is the first transaction of the whole cycle to commit
// (Fekete et al.), so a structure whose Tout provably is not first need not
// be the one that breaks its cycle. Each needs a named counterpart, so the
// basic detector's self-references (Figures 3.2/3.3) stop at "both edges
// exist":
//
//   - A counterpart that aborted is no counterpart: its edges are void.
//   - Commit ordering (Figure 3.10): dangerous only if Tout committed, and
//     before both Tin and the pivot. An identified Tout still running is safe
//     — it will take a timestamp after the pivot's. An out self-reference
//     stands for pivot.outCT: the Tout the pivot found committed at its own
//     commit, or 0 — "several counterparts", the earliest possible, whether
//     any of them has committed or not (the one verdict here that can abort a
//     transaction before anything committed). An in self-reference is the
//     latest possible.
//   - Read-only Tin (Ports & Grittner): an identified Tin that writes nothing
//     — declared so, or committed without a creator cell, which is exactly
//     "created no version" — has no ww- or rw-edge into it, so a cycle
//     re-enters it only by a wr-edge from a transaction that committed before
//     its snapshot. Tout commits before that transaction, hence the structure
//     is dangerous only if ct(Tout) < snap(Tin). A Tin still running and
//     undeclared may yet write, and gets no such benefit.
//
// The incoming side MUST be read before the outgoing side. Neither
// counterpart's commit is blocked by pivot's csMu, so the two loads are not an
// atomic snapshot; what makes the pair sound is that a finite commitTS is
// immutable while "uncommitted" is not. Reading in first, every observable
// pair is consistent with an atomic evaluation at the instant of the out
// load: a finite inCT is still exact then, and an out that commits just after
// being read uncommitted is caught by the commit check. Read in the other
// order, both counterparts committing between the loads (out first) yields
// outCT = ∞ against a finite inCT — a "safe" verdict no atomic evaluation
// would produce, and a dangerous structure slips through (package comment,
// invariant 3). Everything the read-only rule adds is immutable once read: the
// declaration, the snapshot, and the cell of a transaction seen committed
// (its owner's last write to the field happens before its stamp).
//
// The "identified Tout still running" verdict is final only on the commit
// path, where stampIfSafe asks under tsMu: status and commit timestamp are
// published atomically there, so the Tout cannot commit before the pivot's
// own stamp. On the abort-early path the partner may still commit first, and
// the eventual CommitPrepare asks again.
func (m *Manager) dangerous(pivot, in, out *Txn) bool {
	if in == nil || out == nil {
		return false
	}
	if (in != pivot && in.Aborted()) || (out != pivot && out.Aborted()) {
		return false
	}
	inCT := tsInfinity
	if in != pivot {
		inCT = commitTime(in)
	}
	outCT := pivot.outCT
	if out != pivot {
		outCT = commitTime(out)
	}
	if outCT == tsInfinity || outCT > inCT || outCT > commitTime(pivot) {
		return false // Tout is not the first of the three to commit
	}
	if in != pivot && (in.readOnly || (inCT != tsInfinity && in.cell == nil)) {
		snap := in.Snapshot()
		return snap == 0 || outCT < snap
	}
	return true
}

// AbortEarly implements §3.7.1: called at the start of each operation of t,
// it aborts t (returning ErrUnsafe) if t has already become an unsafe pivot.
// It also surfaces aborts decided elsewhere and guards finished transactions.
//
// This is the engine's hottest conflict-path call — once per Get, Put and
// Scan of every SerializableSI transaction — and it is mutex-free unless t
// already carries both an incoming and an outgoing edge: three atomic loads
// (status, in, out) decide the common no-structure case. A racing edge
// install this probe misses is caught by the next probe or by the
// commit-time check (package comment, invariant 2).
func (m *Manager) AbortEarly(t *Txn) error {
	switch t.Status() {
	case StatusAborted:
		return ErrUnsafe
	case StatusCommitted:
		return ErrTxnDone
	}
	if !t.Isolation().TracksConflicts() || t.readOnly {
		// Read-only transactions never install an outgoing edge, so the
		// pivot test below is vacuously safe: the probe degenerates to the
		// status switch above.
		return nil
	}
	if t.in.Load() == nil || t.out.Load() == nil {
		return nil // no dangerous structure: lock-free exit
	}
	t.csMu.Lock()
	defer t.csMu.Unlock()
	m.dropAbortedRefsLocked(t)
	if m.dangerous(t, t.in.Load(), t.out.Load()) {
		return m.abortLocked(t, t)
	}
	return nil
}

// CommitPrepare performs the atomic commit-time section of Figures 3.2 and
// 3.10: it re-checks the dangerous-structure condition, and if safe assigns
// the commit timestamp and atomically marks the transaction committed, so
// that from this instant conflict checks treat it as committed and its
// versions become visible to later snapshots. The caller is responsible for
// log flushing, lock release and Finish afterwards.
//
// Non-conflict-tracking transactions (SI, S2PL) have no structure to check
// and commit through the tsMu fast path without touching csMu.
func (m *Manager) CommitPrepare(t *Txn) (TS, error) {
	return m.CommitPrepareWith(t, nil)
}

// CommitPrepareWith is CommitPrepare handing slot to the commit hook, which
// runs under tsMu on this goroutine once the timestamp is published. The
// Manager does not keep slot.
func (m *Manager) CommitPrepareWith(t *Txn, slot any) (TS, error) {
	switch t.Status() {
	case StatusAborted:
		return 0, ErrUnsafe
	case StatusCommitted:
		return 0, ErrTxnDone
	}
	if !t.Isolation().TracksConflicts() || t.readOnly {
		// A read-only transaction has no outgoing edge (invariant 4), so the
		// dangerous-structure re-check is vacuous and commit is pure
		// publication — identical in cost to an SI commit. Any incoming
		// record on a named-counterpart detector stays valid: the partner
		// reads t's commitTS, published atomically with the status here.
		return m.stampCommitted(t, slot), nil
	}
	// t's own conflict mutex makes the check atomic with commit
	// publication: a MarkConflict involving t either completed before (its
	// edge is visible to stampIfSafe) or serializes after csMu is released,
	// where it finds t committed — with commitTS and status published — and
	// applies the committed-pivot rules instead.
	t.csMu.Lock()
	defer t.csMu.Unlock()
	m.dropAbortedRefsLocked(t)
	ct, ok := m.stampIfSafe(t, slot)
	if !ok {
		return 0, m.abortLocked(t, t)
	}
	if t.out.Load() != nil {
		// A committed transaction carrying an outgoing rw-edge is a
		// potential T_in→pivot threat to snapshots older than its commit:
		// raise the safe-snapshot threat horizon before this transaction can
		// leave the registry (Finish), so SnapshotSafe's watermark-then-
		// horizon read order never misses it ("Safe snapshots" proof).
		m.raiseThreat(ct)
	}
	// Figure 3.10 lines 9-12: replace references to already-committed
	// transactions with self-references so a suspended transaction only ever
	// references transactions with an equal or later commit. Where the thesis
	// lets the outgoing self-reference stand for t's own commit time, t keeps
	// the counterpart's: the read-only rule compares it.
	if in := t.in.Load(); in != nil && in.Committed() {
		t.in.Store(t)
	}
	if out := t.out.Load(); out != nil && out != t && out.Committed() {
		t.outCT = out.CommitTS()
		t.out.Store(t)
	}
	return ct, nil
}

// Finish retires a committed transaction from the active set. The record is
// suspended — kept for later conflict detection — if keep is true (it still
// holds SIREAD locks, or has a detected outgoing conflict — the §3.7.3 note)
// or if it wrote anything: every committed writer stays suspended until it is
// obsolete, because the drain that retires it is what severs its creator cell
// (the rule lives here so no caller can forget it). Only a transaction that
// wrote nothing and holds nothing is dropped immediately. Every suspended
// transaction reaches the retire hook once it has become obsolete — committed
// before every remaining active transaction began — which releases its SIREAD
// locks (eager cleanup, thesis §4.6.1).
func (m *Manager) Finish(t *Txn, keep bool) { m.FinishWith(t, keep, nil) }

// FinishWith is Finish handing payload to the retire hook along with t, the
// way CommitPrepareWith hands its slot to the commit hook. A non-nil payload
// suspends t whatever keep says, so the hook always receives it.
func (m *Manager) FinishWith(t *Txn, keep bool, payload any) {
	m.deregister(t)
	if keep || t.cell != nil || payload != nil {
		t.kept = true
		t.status.Add(queuedBit)
		sh := m.regShardOf(t)
		sh.retMu.Lock()
		sh.retired.pushLocked(t.CommitTS(), Retired{t, payload})
		sh.retMu.Unlock()
		noteQueued()
	}
	m.drain()
}

// Abort marks t aborted and removes it from the active set, then drains as
// Finish does. Rollback and lock release are the caller's responsibility.
// Aborted transactions are never suspended: their conflicts are void.
func (m *Manager) Abort(t *Txn) {
	if t.Status() == StatusActive {
		t.status.Store(int32(StatusAborted))
	}
	m.deregister(t)
	m.drain()
}

// recordPool holds recycled records, zeroed, for BeginTx.
var recordPool = sync.Pool{New: func() any { return new(Txn) }}

// Release tells the Manager that the engine has let go of t: it keeps no
// reference to it, has released its locks (the retire hook releases a queued
// record's SIREAD locks) and its reader slot, and makes no further call with
// it. The caller must have ended t (Finish, FinishWith or Abort) first.
// Release recycles t for a later BeginTx once nobody can reach it ("Record
// lifetime" in the package comment):
//
//   - a record that ended unseen — no creator cell, no lock state, no reader
//     slot, not queued, never an endpoint of MarkConflict — at once: the
//     registry was its only other holder;
//   - any other record once the engine and, if it was queued, the drain that
//     retired it have both let go of it, and then every transaction that was
//     registered at that moment has ended — from limbo, by the sweep of a
//     later transaction end or Release;
//
// in both cases only if it is still no endpoint of MarkConflict then. Two
// kinds of record are never recycled, and the collector ends them as before:
// an aborted writer, whose cell a page stamp may still name with the record
// unsevered, and a record whose locks were never released.
func (m *Manager) Release(t *Txn) {
	st := Status(t.status.Load() & statusMask)
	if st == StatusActive || st == StatusAborted && t.cell != nil || t.locks.Used() && !t.locks.Unlocked() {
		return
	}
	if !t.kept && t.cell == nil && !t.locks.Used() {
		recycle(t)
		return
	}
	if t.status.Load()&queuedBit != 0 && !t.handOff() {
		return // the drain that retires t puts it in limbo
	}
	sh := m.regShardOf(t)
	sh.retMu.Lock()
	m.toLimboLocked(sh, t)
	sh.retMu.Unlock()
	m.sweep()
}

// recycle zeroes t and returns it to the pool BeginTx draws from, unless it
// became an endpoint of MarkConflict: a partner's reference may name it. Its
// csMu orders the read after every MarkConflict that involved it.
func recycle(t *Txn) {
	t.csMu.Lock()
	marked := t.marked
	t.csMu.Unlock()
	if marked {
		return
	}
	*t = Txn{}
	recordPool.Put(t)
}

// SetRetireHook installs fn to receive each suspended transaction once its
// commit precedes every active snapshot, with its cell already severed and
// the payload handed to FinishWith (nil from Finish). A drain hands fn the
// entries it took off one queue together, in commit order, so fn can batch
// its work — the engine prunes each partition's rows under one latch hold.
// fn runs on whichever transaction end drains the entries, with no Manager
// lock held, possibly concurrently with itself; it may take engine latches
// and lock-table mutexes, and must not keep the slice. Must be set before the
// Manager sees concurrency (the engine installs it at Open).
func (m *Manager) SetRetireHook(fn func([]Retired)) { m.retireHook = fn }

// OldestActiveSnapshot is the exported pruning horizon: versions committed
// before it and superseded by another version committed before it can never
// be read again. Used by the MVCC store's garbage pruning and the retirement
// drain. It is a watermark read — one atomic load per registry shard, no
// locks — capped at clock+1 so that a transaction between snapshot
// allocation and registry publication is still covered: any snapshot
// allocated after the cap was read is necessarily larger than it.
//
// The clock must be read before the shard minima: a transaction that
// registers its constraint after its shard was inspected allocates its
// snapshot after the cap was read, so its snapshot exceeds the returned
// horizon either way.
func (m *Manager) OldestActiveSnapshot() TS {
	min := m.clock.Load() + 1
	for _, sh := range m.shards {
		if v := sh.minSnap.Load(); v < min {
			min = v
		}
	}
	return min
}

// OldestActiveRWSnapshot is OldestActiveSnapshot restricted to read-write
// transactions: the oldest snapshot any transaction still allowed to write
// could be reading from. Declared read-only transactions are excluded — they
// cannot commit new rw-edges into the past, so they never keep a snapshot
// unsafe. Same clock-cap-before-shard-minima read order, same soundness
// argument.
func (m *Manager) OldestActiveRWSnapshot() TS {
	min := m.clock.Load() + 1
	for _, sh := range m.shards {
		if v := sh.minRW.Load(); v < min {
			min = v
		}
	}
	return min
}

// graceHorizon is the grace clock's horizon: a record in limbo whose stamp
// precedes it was stamped after every transaction registered at the time had
// ended, and is recycled. It is the minimum of the active transactions' begin
// stamps — of every one, with or without a snapshot, read-only or not — capped
// by the grace clock, read first, plus one.
//
// The order of the reads is what makes a stamp below the horizon safe. A
// transaction W registered before a record was stamped R began at a stamp
// below R. If R is below the cap, the tick that produced R preceded the cap's
// load, and so W's registration precedes the load of its shard's minimum,
// which therefore shows W's begin stamp (below R) for as long as W is active.
// If R is not below the cap, it is not below the horizon either.
func (m *Manager) graceHorizon() uint64 {
	min := m.graceClock.Load() + 1
	for _, sh := range m.shards {
		if v := sh.minBegin.Load(); v < min {
			min = v
		}
	}
	return min
}

// raiseThreat CAS-maxes the safe-snapshot threat horizon to ct.
func (m *Manager) raiseThreat(ct TS) {
	for {
		old := TS(m.threatHi.Load())
		if ct <= old || m.threatHi.CompareAndSwap(uint64(old), uint64(ct)) {
			return
		}
	}
}

// SnapshotSafe reports whether t's snapshot s is safe, given the toutHi that
// AssignSnapshotTout returned with it: no read-write
// transaction that could still commit an rw-edge into s's past remains, and
// none that already committed one committed after s. A transaction on a safe
// snapshot needs no SIREAD locks and no conflict tracking — its reads are
// equivalent to a serial execution at s ("Safe snapshots" in the package
// comment proves the conditions suffice, and that a positive verdict is
// permanently sound for the transaction holding s — callers cache the first
// true and never re-check. The predicate itself may later return false for
// the same s after an unrelated threatening commit; that denial is
// conservative, never the reverse).
//
// Active read-write transactions older than s do not by themselves make s
// unsafe: W with snapshot below s threatens s only through a Tout that
// committed inside (snap(W), s], and that window's population is fixed by
// the time s exists (every commit at or below s has already happened —
// toutHi, captured under tsMu at snapshot assignment, is exactly the newest
// of them). So when the watermark is at or above toutHi, every
// active elder's snapshot is too, no elder's window contains a Tout, and
// all of them are provably harmless to s forever. This is what lets
// promotions happen under a sustained stream of short writers, where a
// zero-active-writer instant almost never occurs.
//
// The watermark must be read before the threat horizon: a threatening
// transaction raises the horizon (CommitPrepare) strictly before it leaves
// the registry (Finish), so observing it gone from the watermark implies its
// raise is visible.
func (m *Manager) SnapshotSafe(t *Txn, toutHi TS) bool {
	s := TS(t.beginTS.Load())
	if s == 0 {
		return false
	}
	if w := m.OldestActiveRWSnapshot(); w <= s && w < toutHi {
		return false
	}
	return TS(m.threatHi.Load()) <= s
}

// Stats is a point-in-time census of the Manager, used by tests and the
// benchmark harness to verify that suspension bookkeeping does not leak.
type Stats struct {
	Active    int
	Suspended int
	Limbo     int // released records waiting for the grace horizon
	Clock     TS
}

// StatsSnapshot returns current counters. The registry shards are visited
// one at a time, so Active and Suspended are not atomic cuts across shards;
// quiesce first for exact numbers.
func (m *Manager) StatsSnapshot() Stats {
	st := Stats{Clock: m.clock.Load()}
	for _, sh := range m.shards {
		sh.mu.Lock()
		st.Active += len(sh.active)
		sh.mu.Unlock()
		sh.retMu.Lock()
		st.Suspended += sh.retired.len()
		st.Limbo += sh.limbo.len()
		sh.retMu.Unlock()
	}
	return st
}

// HasInConflict reports whether an incoming rw-edge has been recorded on t.
// A lock-free load: the commit path uses it for suspension bookkeeping and
// tests for assertions, neither of which needs install-ordering beyond what
// the atomics provide (package comment, invariant 2).
func (m *Manager) HasInConflict(t *Txn) bool {
	return t.in.Load() != nil
}

// HasOutConflict reports whether an outgoing rw-edge has been recorded on t.
func (m *Manager) HasOutConflict(t *Txn) bool {
	return t.out.Load() != nil
}
