// Package lock implements the lock manager required by Serializable Snapshot
// Isolation (thesis Chapter 3): the classical SHARED/EXCLUSIVE modes used by
// S2PL and by SI's write locks, plus the paper's new SIREAD mode, which never
// blocks and is never blocked but whose presence alongside an EXCLUSIVE lock
// signals an rw-antidependency between the owners.
//
// Keys carry a kind so one manager serves row locks, next-key gap locks
// (phantom prevention, thesis §2.5.2/§3.5) and page locks (the Berkeley DB
// granularity of thesis Chapter 4).
//
// # Sharded lock table
//
// The paper's prototypes guard the whole lock table with one latch (InnoDB's
// kernel mutex), which serialises every acquire and release on every core.
// Following the partitioned lock tables that made SSI production-ready in
// PostgreSQL (Ports & Grittner, VLDB 2012), this manager hash-stripes the
// table into shards: a key maps to exactly one shard, and each shard has its
// own mutex, condition variables and ownership bookkeeping, so acquires and
// releases on different keys proceed in parallel. Deadlock detection cannot
// be per-shard — a wait cycle can span shards — so it lives in a dedicated
// waits-for graph component (waitsfor.go) consulted only when a request must
// block; the uncontended fast path touches nothing global.
//
// # Contended path: spin, then park with direct handoff
//
// A blocked AcquireInto first spins briefly — re-probing the entry with the
// shard mutex dropped between probes — and touches no global state at all;
// most short waits (an SI write lock held across a few operations) resolve
// here. Only a request that outlives the spin parks: it registers its edges
// in the waits-for graph (running immediate deadlock detection) and joins
// the entry's FIFO wait queue. Releases sweep that queue in order and hand
// the lock directly to the waiters that can now be granted, waking only
// those — the Broadcast-herd of the first sharded design, where every
// release woke every waiter to re-fight for the shard mutex and re-register
// its edges, is gone, and FIFO handoff doubles as anti-starvation. A
// configurable wait timeout (SetWaitTimeout) bounds how long a parked
// request can be wedged behind a stuck holder.
//
// The manager detects deadlocks immediately with a waits-for graph search and
// aborts the requester, and implements shared→exclusive upgrades. Only a
// version retires its writer's read (the SIREAD→EXCLUSIVE upgrade of thesis
// §3.7.3), and only a version signals a write to a reader. On a page, whose
// holder of EXCLUSIVE stamps it, the owner's SIREAD goes at the grant and an
// SIREAD request reports the EXCLUSIVE holders (upgradeable); a split hands
// the new page both its SIREAD and its EXCLUSIVE holders (Inherit). A row's
// EXCLUSIVE lock may write nothing (a locked read) and a gap has no version:
// a row read goes in the probe of the write that installs a version (Probe),
// a gap keeps both modes, and an SIREAD request on either reports no holder.
// A split gap hands the new gap its SIREAD and SHARED holders (Inherit).
//
// SIREAD locks deliberately survive their owner's commit: the engine keeps
// them until the suspended owner is cleaned up (thesis §3.3), releasing them
// with ReleaseAll.
//
// # Owner bookkeeping
//
// A transaction's lock state (lockstate.Owner, in its record) lists the
// entries it holds a mode on, each with a mode hint, and counts its SIREAD
// locks. Invariant: an entry is listed exactly when the owner is in its
// holder set. The holder set, read under the shard mutex, is the authority on
// modes; a release trusts the hint only for whether a blocking mode (Shared
// or Exclusive) is held, which is exact: only the owner's grants add one and
// only its releases drop one. An entry records its key and shard, so a
// release walks the owner's list (ReleaseBlocking the blocking elements,
// ReleaseAll all) and hashes a key only to delete an emptied entry — the
// layout of PostgreSQL's SSI, which links each predicate lock into its
// target's list and its transaction's (Ports & Grittner, VLDB 2012).
//
// The owner's mutex guards the list and the count, inside shard mutexes.
// Inherit appends to an owner's list from another goroutine, so a
// release takes its elements off under one hold, drops their modes shard by
// shard and puts back under a second hold those keeping a SIREAD. A
// ReleaseAll marks the owner released under its first hold, and
// Inherit skips released owners, so the list it takes is complete.
//
// # Implicit row locks
//
// At row granularity a write takes no entry here, at any isolation level. Its
// write lock is implicit: the row's head version names its writer, and that
// version holds the row until the writer lets go of its locks (ImplicitHeld),
// as InnoDB's record carries its writer's id and PostgreSQL's tuple header its
// xmax. The row store decides such a write in one exclusive latch hold: a head
// written by another transaction that still holds it sends the writer to
// wait; other writers look at the row key's entry with Probe, a lookup that
// never inserts, for SIREAD holders to mark and for a blocking holder (an S2PL
// reader, a locked read, a waiter), and install if there is none; an insert
// probes the gap it splits the same way (Figure 3.7). So the table holds a
// row's Exclusive lock only for a locked read (GetForUpdate), a conversion,
// or a waiter, and a gap's only for an insert that waited: a write that found
// a blocking holder acquires the Exclusive lock and keeps it. The table stays
// the one place anyone waits:
//   - Conversion. A transaction that must wait for an implicit lock first makes
//     it explicit with Convert — an Exclusive entry held on the head writer's
//     behalf and listed on its owner, as Inherit lists an inherited lock
//     — and then acquires through the usual spin, park, waits-for and timeout
//     path (InnoDB's lock_rec_convert_impl_to_expl).
//   - The release guard. Every release marks its owner unlocked before it
//     looks at anything else, and Convert checks the mark under the owner's
//     mutex after marking the owner used, so a conversion either lands on the
//     list the release takes or is refused: the writer has committed or rolled
//     back, and nothing is left held for it.
//   - Explicit grants. A blocking grant on a row key is followed by one read
//     of the row under the latch, which decides: if its first newer version,
//     or else its visible one, is another writer's that still holds the row
//     (ImplicitHeld), the owner converts and waits the same way and reads
//     again; an owner that re-requests a mode it holds waits when a converted
//     lock now blocks it. Between the two, a write's latch hold and a grant's
//     read are ordered by the latch: either the write sees the grant or the
//     read sees the write. A grant is not a write: it marks no reader, no
//     reader marks it, and it retires no SIREAD, its owner's included.
//   - The holder. A converted lock sits beside the grant of the waiter that
//     converted it, so its writer asks the table nothing more about that row:
//     it holds the row by its version, and its locked reads of the row return
//     without a request, as its reads of the row take no SIREAD (§3.7.3). A
//     request would wait behind the waiter, which waits for the writer.
//
// # Row readers
//
// Nor does an SSI point read of an existing row take an entry: its SIREAD,
// which never blocks (Ports & Grittner, VLDB 2012), lives on the row, in the
// row store's reader word, set in the latch hold that reads the row. A
// write's claim reads the word beside its Probe. The table keeps the rest: a
// read that finds the word taken (overflow), scans, gaps, pages and keys
// without a row.
package lock

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
	"unsafe"

	"ssi/internal/core"
	"ssi/internal/lockstate"
)

// The lock vocabulary and the per-owner bookkeeping live in package
// lockstate, below core, so that a transaction record can embed its owner
// state; these aliases are their names here, and lockstate documents them.
type (
	Mode = lockstate.Mode // a set of lock modes, one bit each
	Kind = lockstate.Kind // the namespace of a lockable object
	Key  = lockstate.Key  // one lockable object
)

// The modes: Shared (S2PL reads), Exclusive (writes at every level) and
// SIRead, which neither blocks nor is blocked (thesis §3.2) and exists so
// that writers can detect read-write conflicts.
const (
	Shared    = lockstate.Shared
	Exclusive = lockstate.Exclusive
	SIRead    = lockstate.SIRead
)

// The kinds: Row (one record, InnoDB's granularity), Gap (the open interval
// just before a key, InnoDB's next-key locking, thesis §2.5.2), Page (a
// B+tree page, Berkeley DB's granularity, thesis Chapter 4) and GapSupremum
// (the gap past a table's largest key).
const (
	Row         = lockstate.Row
	Gap         = lockstate.Gap
	Page        = lockstate.Page
	GapSupremum = lockstate.GapSupremum
)

// RowKey, GapKey and PageKey are convenience constructors.
func RowKey(table string, key []byte) Key { return Key{Table: table, Kind: Row, K: string(key)} }

// GapKey names the gap immediately before key in table's key order.
func GapKey(table string, key []byte) Key { return Key{Table: table, Kind: Gap, K: string(key)} }

// PageKey names a B+tree page by its page number.
func PageKey(table string, page uint32) Key {
	return Key{Table: table, Kind: Page, K: string([]byte{byte(page >> 24), byte(page >> 16), byte(page >> 8), byte(page)})}
}

// SupremumGapKey names the gap past the largest key in table.
func SupremumGapKey(table string) Key { return Key{Table: table, Kind: GapSupremum} }

// blocksOn reports whether a request for mode req must wait while another
// owner holds the modes in held on an object of the given kind. SIREAD
// neither blocks nor is blocked. On gaps, exclusive locks (taken by inserts
// whose probe was blocked, InnoDB's "insert intention") are compatible with
// each other: two inserts into the same gap do not conflict, only a
// predicate reader's shared gap lock blocks them (thesis §2.5.2).
func blocksOn(kind Kind, req Mode, held Mode) bool {
	gap := kind == Gap || kind == GapSupremum
	switch req {
	case Exclusive:
		if gap {
			return held&Shared != 0
		}
		return held&(Shared|Exclusive) != 0
	case Shared:
		return held&Exclusive != 0
	default: // SIRead
		return false
	}
}

type entry struct {
	holders map[*core.Txn]Mode
	// key and s are the entry's key and the shard whose table holds it, set
	// while the entry is installed, so a release that reaches the entry
	// through its owner's list neither hashes the key nor looks it up.
	key Key
	s   *shard
	// q is the FIFO queue of parked waiters (waitqueue.go). Spinning
	// requests are invisible here; a request appears only once it parks.
	q waitQueue
	// Per-mode holder counts let hot entries (a B+tree root page can carry
	// an SIREAD lock from every recent transaction) answer "any blocker?"
	// and "any rival?" without iterating the holders map.
	nShared, nExclusive, nSIRead int32
}

// countModes adjusts the entry's mode counters for a holder transition.
func (e *entry) countModes(before, after Mode) {
	e.nShared += gained(before, after, Shared)
	e.nExclusive += gained(before, after, Exclusive)
	e.nSIRead += gained(before, after, SIRead)
}

// gained is 1 if the transition from before to after gains the one-bit mode
// m, -1 if it loses it, and 0 otherwise.
func gained(before, after, m Mode) int32 { return int32(after&m/m) - int32(before&m/m) }

// shard is one stripe of the lock table. A key maps to exactly one shard
// (shardOf), so shard tables are disjoint; an entry's condition variable is
// bound to its shard's mutex.
type shard struct {
	idx   int // position in Manager.shards, used for deadlock-free pair locking
	mu    sync.Mutex
	table map[Key]*entry

	// Wait-path instrumentation, guarded by mu. waits counts acquires that
	// found a blocker at all; spinGrants the subset resolved during the
	// bounded spin (never touching the waits-for graph); parks the subset
	// that enqueued and slept; wakeups the handoff signals delivered
	// (grants plus deadlock verdicts — with direct handoff, wakeups per
	// grant is one by construction, which is exactly what this counter
	// exists to prove); timeouts the parks withdrawn by LockWaitTimeout;
	// waitNanos the cumulative parked time (spin time is deliberately not
	// clocked — reading the clock would burden the short-wait path the
	// spin exists to keep cheap).
	waits      uint64
	spinGrants uint64
	parks      uint64
	wakeups    uint64
	timeouts   uint64
	waitNanos  uint64

	// Pad the struct to 128 bytes: that size class is allocated at
	// 128-byte slot boundaries, so each shard's mutex is guaranteed its
	// own cache line (a 64-byte struct would merely make line-sharing
	// with a neighbouring allocation unlikely, not impossible).
	_ [56]byte
}

// lock takes the shard's mutex; every acquisition goes through it, so the
// workcount build counts them.
func (s *shard) lock() {
	noteShardLock()
	s.mu.Lock()
}

// lockOwner takes an owner's mutex, counted like a shard's.
func lockOwner(os *ownerState) {
	noteOwnerLock()
	os.Lock()
}

// entryPool recycles entry records. An entry is dropped the moment nothing
// holds or waits on it (gcEntryLocked), so a point operation on an idle key
// discards one per acquire, and a cleanup of suspended transactions discards
// their SIREAD entries in one burst; the pool absorbs both. An entry goes in
// empty but keeps its holders map, so a recycled one costs neither.
var entryPool = sync.Pool{New: func() any { return &entry{holders: make(map[*core.Txn]Mode)} }}

// entryLocked returns key's entry, installing an empty one if the key is not
// in the table; the caller holds the shard mutex.
func (s *shard) entryLocked(key Key) *entry {
	noteKeyHash()
	e := s.table[key]
	if e == nil {
		e = entryPool.Get().(*entry)
		e.key, e.s = key, s
		noteKeyHash()
		s.table[key] = e
	}
	return e
}

// entryOf returns the entry an owner's list element names.
func entryOf(h lockstate.Held) *entry { return (*entry)(h.Entry) }

// ownerState is one transaction's lock bookkeeping ("Owner bookkeeping"
// above), part of its record (core.Txn.Locks). Its mutex is not the record's
// conflict mutex. Its released flag, set under the mutex and read atomically,
// marks an initiated ReleaseAll: an Inherit racing the release could
// otherwise resurrect a SIREAD in a shard already drained, leaking the entry.
type ownerState = lockstate.Owner

// stateOf returns the owner's bookkeeping, or nil if it never took a lock.
func stateOf(owner *core.Txn) *ownerState { return owner.LockState() }

// listPool recycles owner lists. An owner takes one with its first grant and
// hands it back when a release leaves it holding nothing — at commit already,
// for a transaction without SIREAD locks — since records stay reachable from
// the retirement queues after their locks are gone. (Core recycles a record
// that took a lock only once every transaction that could have read it from
// the lock table has ended.) A release borrows one more list for the entries
// it takes off.
var listPool = sync.Pool{New: func() any { l := make([]lockstate.Held, 0, 8); return &l }}

// putList empties l, so it pins no entry while idle, and pools it.
func putList(l *[]lockstate.Held) {
	clear(*l)
	*l = (*l)[:0]
	listPool.Put(l)
}

// addHeldLocked puts e on the owner's list; the caller holds the owner's
// mutex, and the owner held nothing on e.
func addHeldLocked(os *ownerState, e *entry, hint Mode) {
	if os.Held == nil {
		os.Held = listPool.Get().(*[]lockstate.Held)
	}
	*os.Held = append(*os.Held, lockstate.Held{Entry: unsafe.Pointer(e), Hint: hint})
}

// stateFor returns the owner's bookkeeping, marking it used. An owner whose
// ReleaseAll has begun is retired for good, and acquiring for it again
// panics: the release took the list its grant would join, Inherit
// skips a released owner, and clearing the flag could race a release still
// draining shards. A transaction that needs locks after a ReleaseAll begins
// a new record. Only the owner's own goroutine acquires locks, so the used
// mark needs no lock; see core.Txn.Locks.
func stateFor(owner *core.Txn) *ownerState {
	os := owner.Locks()
	if os.Released() {
		panic(fmt.Sprintf("lock: transaction %d acquires a lock after its ReleaseAll", owner.ID()))
	}
	os.MarkUsed()
	return os
}

// Manager is a sharded lock table. The zero value is not usable; call
// NewManagerShards.
type Manager struct {
	shards []*shard
	mask   uint32
	wfg    *waitGraph

	// waitTimeout bounds how long a parked AcquireInto sleeps before giving up
	// with core.ErrLockTimeout; zero waits forever. Set once before the
	// manager sees concurrent use (SetWaitTimeout).
	waitTimeout time.Duration
}

// SetWaitTimeout installs the bound on how long a blocked AcquireInto may stay
// parked before failing with core.ErrLockTimeout; zero (the default) waits
// forever. Must be called before the manager is used concurrently.
func (m *Manager) SetWaitTimeout(d time.Duration) { m.waitTimeout = d }

// NewManagerShards returns an empty lock table of n shards, sized by
// core.ShardCount (rounded up to a power of two, clamped to [1, 256]; n <= 0
// selects its GOMAXPROCS-scaled default, shared with the transaction
// registry). A single shard reproduces the paper's global lock-table latch
// exactly (useful for ablation benchmarks). The §3.7.3 upgrade always
// applies (upgradeable, Probe): upgradeSIRead must be true; the parameter
// stays for benchmark/layers.go.
func NewManagerShards(upgradeSIRead bool, n int) *Manager {
	if !upgradeSIRead {
		panic("lock: the §3.7.3 SIREAD upgrade cannot be turned off")
	}
	n = core.ShardCount(n)
	m := &Manager{
		shards: make([]*shard, n),
		mask:   uint32(n - 1),
		wfg:    newWaitGraph(),
	}
	for i := range m.shards {
		m.shards[i] = &shard{idx: i, table: make(map[Key]*entry)}
	}
	return m
}

// Shards returns the shard count (a power of two).
func (m *Manager) Shards() int { return len(m.shards) }

// shardIndex maps a key to its shard's position in m.shards with FNV-1a over
// all key fields.
func (m *Manager) shardIndex(key Key) uint32 {
	noteKeyHash()
	h := core.Fnv32aInit()
	h = core.Fnv32aString(h, key.Table)
	h = core.Fnv32aByte(h, byte(key.Kind))
	h = core.Fnv32aString(h, key.K)
	return h & m.mask
}

func (m *Manager) shardOf(key Key) *shard { return m.shards[m.shardIndex(key)] }

// acquireSpins is the bounded spin budget of a blocked AcquireInto: how many
// times it re-probes the entry (yielding the processor and the shard mutex
// between probes) before parking. Short lock holds — the common case for a
// converted write lock whose writer is about to commit, and for S2PL rows read
// late in a transaction — drain within a few scheduler yields, and a
// spin-grant touches neither the waits-for graph nor any wait-queue state.
// The spin is adaptive in one respect: a request that must queue behind an
// already-parked conflicting waiter cannot be granted however long it spins,
// so it parks immediately.
const acquireSpins = 4

// AcquireInto obtains a lock of the given mode on key for owner, blocking
// while incompatible locks are held by others. It returns the set of current
// holders whose locks signal a read-write conflict with this request,
// captured atomically with the grant: for an EXCLUSIVE request the SIREAD
// holders, on every kind; for an SIREAD request the EXCLUSIVE holders on a
// page, and none on a row or a gap, whose writers readers find by their
// versions (see the package comment). The caller is responsible for overlap
// filtering and conflict marking. AcquireInto fails with core.ErrDeadlock if
// waiting would close a cycle in the waits-for graph, and with
// core.ErrLockTimeout if a configured SetWaitTimeout elapses while parked.
//
// Re-acquiring a held mode is a no-op. An owner holding Shared that requests
// Exclusive upgrades in place once other holders drain; upgrades wait only
// on holders, while fresh requests also queue behind parked conflicting
// waiters (FIFO, so a stream of compatible requests cannot starve a parked
// incompatible one).
//
// The rivals are appended to the caller-supplied buffer (which may be nil)
// and the buffer returned. The engine's per-operation paths pass a
// per-transaction scratch buffer so an uncontended point operation performs
// no rival-slice allocation at all. On error the buffer is returned with
// whatever prefix it already carried.
func (m *Manager) AcquireInto(owner *core.Txn, key Key, mode Mode, buf []*core.Txn) (rivals []*core.Txn, err error) {
	return m.acquire(owner, key, mode, buf, false)
}

// TryAcquireInto is AcquireInto that never waits: where AcquireInto would
// spin or park, it grants nothing, counts no wait and returns buf and false.
// A grant appends its rivals to buf as AcquireInto's does. It never blocks,
// so a caller may ask it under a latch that a split's Inherit also takes.
func (m *Manager) TryAcquireInto(owner *core.Txn, key Key, mode Mode, buf []*core.Txn) ([]*core.Txn, bool) {
	rivals, err := m.acquire(owner, key, mode, buf, true)
	return rivals, err == nil
}

var errWouldWait = errors.New("lock: request would wait") // TryAcquireInto's refusal

// acquire is AcquireInto's body, and TryAcquireInto's if try is set.
func (m *Manager) acquire(owner *core.Txn, key Key, mode Mode, buf []*core.Txn, try bool) (rivals []*core.Txn, err error) {
	noteAcquires(1)
	os := stateFor(owner)
	s := m.shardOf(key)
	s.lock()

	spins := 0
	blocked := false
	for {
		// Re-fetched each probe: the entry can be deleted and recreated
		// while the spin loop is off the shard mutex.
		e := s.entryLocked(key)
		own := e.holders[owner]

		// Already held — unless a converted implicit lock (Convert) now
		// blocks it: then wait for that writer as a conversion waits, on
		// holders only.
		if own&mode == mode && (mode == SIRead || blockersLocked(e, owner, own, mode) == nil) {
			rivals = rivalsInto(e, owner, own, mode, buf)
			s.mu.Unlock()
			return rivals, nil
		}
		if mode == SIRead && own&Exclusive != 0 && upgradeable(key.Kind) {
			// Already upgraded: the exclusive lock subsumes the read lock's
			// conflict-detection role (our new version is the signal).
			s.mu.Unlock()
			return buf, nil
		}

		conv := own&(Shared|Exclusive) != 0
		waitSet := waitSetLocked(e, owner, own, mode, conv, nil)
		if len(waitSet) == 0 {
			if blocked {
				s.spinGrants++
			}
			rivals = rivalsInto(e, owner, own, mode, buf)
			m.grantLocked(os, e, owner, own, mode)
			if conv && e.q.n > 0 {
				// A conversion grant can newly block parked waiters (an
				// upgrade slips past the queue by design); refresh their
				// waits-for edges — and their grantability — now. Fresh
				// grants never can: blocksOn is symmetric, so a request
				// that would block a parked waiter would have conflicted
				// with it in waitSetLocked and parked behind it instead.
				m.sweepLocked(e)
			}
			s.mu.Unlock()
			return rivals, nil
		}
		if try {
			s.mu.Unlock() // no entry GC needed, as for a deadlock below
			return buf, errWouldWait
		}
		if !blocked {
			blocked = true
			s.waits++ // count blocked acquires, not probe iterations
		}

		if spins < acquireSpins && (conv || e.q.n == 0) {
			spins++
			s.mu.Unlock()
			runtime.Gosched()
			s.lock()
			continue
		}

		// Park: register the wait in the cross-shard graph — while the
		// shard mutex is still held, so the blocker set cannot go stale and
		// no cycle through a sleeping waiter can be missed — then enqueue
		// and sleep until a sweep hands the lock over.
		w := getWaiter()
		w.owner, w.os, w.e, w.mode, w.conv = owner, os, e, mode, conv
		if !m.wfg.register(w, waitSet) {
			// No entry GC needed: a non-empty waitSet implies a conflicting
			// holder or a parked waiter, so the entry is in use.
			putWaiter(w)
			s.mu.Unlock()
			return buf, core.ErrDeadlock
		}
		e.q.enqueue(w)
		s.parks++
		s.mu.Unlock()
		got, err := m.await(s, w)
		if err != nil {
			return buf, err
		}
		return append(buf, got...), nil
	}
}

// await sleeps on w's handoff channel after AcquireInto parked it, bounded by
// the manager's wait timeout. The grant itself (lock installation, rival
// capture, edge removal) was done by the sweeping goroutine; await only
// collects the outcome. On timeout the request is withdrawn: dequeued,
// deregistered from the waits-for graph, and failed with ErrLockTimeout so
// one wedged holder cannot hang the system forever.
func (m *Manager) await(s *shard, w *waiter) ([]*core.Txn, error) {
	start := time.Now()
	var timeoutC <-chan time.Time
	if m.waitTimeout > 0 {
		timer := time.NewTimer(m.waitTimeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case <-w.ready:
	case <-timeoutC:
	}

	s.lock()
	s.waitNanos += uint64(time.Since(start))
	if !w.granted && !w.deadlock {
		// Timed out, and no signal raced in before we retook the mutex:
		// withdraw. Later waiters may have queued behind this request, so
		// sweep the entry after removing it.
		e := w.e // alive: w was still queued on it
		e.q.remove(w)
		m.wfg.drop(w)
		s.timeouts++
		m.sweepLocked(e)
		gcEntryLocked(e)
		s.mu.Unlock()
		putWaiter(w)
		return nil, core.ErrLockTimeout
	}
	granted, rivals := w.granted, w.rivals
	s.mu.Unlock()
	putWaiter(w)
	if !granted {
		return nil, core.ErrDeadlock
	}
	return rivals, nil
}

// blockersLocked returns the other owners whose held modes block a request by
// owner, who holds own on e.
func blockersLocked(e *entry, owner *core.Txn, own, mode Mode) []*core.Txn {
	if mode == SIRead {
		return nil // SIREAD never blocks
	}
	// Skip the holder iteration when the counters say nothing can block.
	gap := e.key.Kind == Gap || e.key.Kind == GapSupremum
	switch mode {
	case Exclusive:
		others := e.nShared
		if own&Shared != 0 {
			others--
		}
		if !gap {
			x := e.nExclusive
			if own&Exclusive != 0 {
				x--
			}
			others += x
		}
		if others == 0 {
			return nil
		}
	case Shared:
		x := e.nExclusive
		if own&Exclusive != 0 {
			x--
		}
		if x == 0 {
			return nil
		}
	}
	var out []*core.Txn
	for h, held := range e.holders {
		if h == owner {
			continue
		}
		if blocksOn(e.key.Kind, mode, held) {
			out = append(out, h)
		}
	}
	return out
}

// rivalsInto appends to out the other owners whose held modes signal a
// read-write conflict with a request by owner, who holds own on e — SIREAD
// versus EXCLUSIVE in either direction (thesis Figures 3.4 and 3.5), the
// EXCLUSIVE holders on a page only (AcquireInto) — and returns it, so hot callers
// can reuse one buffer across acquires instead of allocating per request.
func rivalsInto(e *entry, owner *core.Txn, own, mode Mode, out []*core.Txn) []*core.Txn {
	var rival Mode
	var n int32 // holders of rival, which the counters give without the map
	switch {
	case mode == Exclusive:
		rival, n = SIRead, e.nSIRead
	case mode == SIRead && upgradeable(e.key.Kind):
		rival, n = Exclusive, e.nExclusive
	}
	if own&rival != 0 {
		n--
	}
	if n == 0 {
		return out
	}
	for h, held := range e.holders {
		if h != owner && held&rival != 0 {
			out = append(out, h)
		}
	}
	return out
}

// upgradeable reports whether an EXCLUSIVE lock on a key of kind stands for a
// version: only a page's, whose every holder stamps it. Only there does an
// EXCLUSIVE grant drop its owner's SIREAD (§3.7.3), an SIREAD request
// report the EXCLUSIVE holders, and a split move the EXCLUSIVE lock to the
// new page (Inherit). A row's EXCLUSIVE lock may be a locked read's,
// which writes nothing, so a row read goes only in the probe of the write that
// installs a version (Probe). A gap has no version: dropping a gap SIREAD when
// its owner inserts into its own scanned range (its probe, or its grant after
// a wait) would blind phantom detection against later inserts by others.
func upgradeable(kind Kind) bool { return kind == Page }

// grantLocked installs mode for owner, who held prev on e (read once by the
// caller); the caller holds the mutex of e's shard. An owner that held
// nothing there lists e; one that held only SIRead has its element's hint
// told of the blocking mode, found from the list's end, where the read that
// took the SIRead usually left it.
func (m *Manager) grantLocked(os *ownerState, e *entry, owner *core.Txn, prev, mode Mode) {
	next := prev | mode
	lockOwner(os)
	if mode == Exclusive && prev&SIRead != 0 && upgradeable(e.key.Kind) {
		// §3.7.3: drop the SIREAD lock; the version we create will expose
		// the conflict to future readers instead.
		next &^= SIRead
		os.SIReads--
	}
	if mode == SIRead && prev&SIRead == 0 {
		os.SIReads++
	}
	listLocked(os, e, prev, next)
	os.Unlock()
	e.holders[owner] = next
	e.countModes(prev, next)
}

// listLocked keeps the owner's list in step with a grant that takes its modes
// on e from prev to next; the caller holds the owner's mutex. An owner that
// held nothing there lists e; one that held only SIRead has its element's
// hint told of the blocking mode.
func listLocked(os *ownerState, e *entry, prev, next Mode) {
	if prev == 0 {
		addHeldLocked(os, e, next)
	} else if prev&(Shared|Exclusive) == 0 && next&(Shared|Exclusive) != 0 {
		(*os.Held)[heldIndex(os, e)].Hint = next
	}
}

// heldIndex returns the position of e on the owner's list, searched from the
// end, where the read that took a SIRead usually left it; the caller holds
// the owner's mutex, and e is listed.
func heldIndex(os *ownerState, e *entry) int {
	l := *os.Held
	i := len(l) - 1
	for entryOf(l[i]) != e {
		i--
	}
	return i
}

// ReleaseBlocking releases owner's Shared and Exclusive locks (at commit
// time, after the log flush) but keeps SIREAD locks, which must survive
// until the suspended owner is cleaned up.
func (m *Manager) ReleaseBlocking(owner *core.Txn) { m.release(owner, Shared|Exclusive) }

// ReleaseAll releases every lock held by owner, including SIREAD locks. Used
// on abort and when a suspended transaction is cleaned up.
func (m *Manager) ReleaseAll(owner *core.Txn) { m.release(owner, Shared|Exclusive|SIRead) }

// release drops the modes in drop from the entries on owner's list whose
// hint has one of them ("Owner bookkeeping" above). After a ReleaseAll has
// marked the owner released its SIREAD census is zero.
func (m *Manager) release(owner *core.Txn, drop Mode) {
	os := owner.Locks()
	os.MarkUnlocked() // before Used is read: see Convert
	if !os.Used() {
		return // never held a lock
	}
	var l, moved *[]lockstate.Held
	lockOwner(os)
	if drop&SIRead != 0 {
		os.MarkReleased()
		os.SIReads = 0
	}
	if l = os.Held; l != nil {
		kept := (*l)[:0]
		for _, h := range *l {
			if h.Hint&drop == 0 {
				kept = append(kept, h)
				continue
			}
			if moved == nil {
				moved = listPool.Get().(*[]lockstate.Held)
			}
			*moved = append(*moved, h)
		}
		clear((*l)[len(kept):])
		if *l = kept; len(kept) > 0 {
			l = nil // still the owner's
		} else {
			os.Held = nil
		}
	}
	os.Unlock()
	if l != nil {
		putList(l)
	}
	if moved == nil {
		return
	}
	back := (*moved)[:0]
	for _, h := range *moved {
		// The holder set, read under the shard mutex, is the authority on
		// the modes: a concurrent Inherit may have widened them.
		e, s := entryOf(h), entryOf(h).s // s read before the drop recycles e
		s.lock()
		held := e.holders[owner]
		rest := held &^ drop
		e.countModes(held, rest)
		if rest == 0 {
			delete(e.holders, owner)
		} else {
			e.holders[owner] = rest
			back = append(back, lockstate.Held{Entry: h.Entry, Hint: rest})
		}
		if held&(Shared|Exclusive) != 0 && e.q.n > 0 {
			// Dropping a blocking mode can unblock parked waiters: sweep the
			// FIFO queue, handing the lock directly to — and waking only —
			// waiters that can now be granted.
			m.sweepLocked(e)
		}
		gcEntryLocked(e)
		s.mu.Unlock()
	}
	if len(back) > 0 {
		lockOwner(os)
		for _, h := range back {
			addHeldLocked(os, entryOf(h), h.Hint)
		}
		os.Unlock()
	}
	putList(moved)
}

// gcEntryLocked removes e from its shard's table once nothing holds or waits
// on it and recycles the record; the caller holds the shard mutex. An empty
// entry has an empty holders map and queue and zeroed counters by
// construction, so it is reusable once its key and shard are cleared.
func gcEntryLocked(e *entry) {
	if len(e.holders) == 0 && e.q.n == 0 {
		noteKeyHash()
		delete(e.s.table, e.key)
		e.key, e.s = Key{}, nil
		entryPool.Put(e)
	}
}

// batchScratch is the working memory of one AcquireSIReadBatchInto call: the
// rival-deduplication set and the buffers of the counting sort that groups
// the batch by shard — each key's shard index, the per-shard bucket
// boundaries and the grouped copy of the keys. Recycled through batchPool and
// handed back with the set and the keys cleared, so an idle scratch pins no
// transaction record and no key bytes.
type batchScratch struct {
	seen    map[*core.Txn]bool
	idx     []uint32
	start   []int
	grouped []Key
}

var batchPool = sync.Pool{New: func() any { return &batchScratch{seen: make(map[*core.Txn]bool, 8)} }}

// AcquireSIReadBatchInto grants SIREAD on every key in one critical section
// per touched shard and appends the union of conflicting EXCLUSIVE holders —
// of its page keys, as AcquireInto reports them — to buf (which may be nil),
// returning it, so the scan path can reuse one rival buffer across rounds.
// SIREAD never blocks, so this cannot wait; it exists because predicate scans
// lock every row and gap they visit, and per-key shard round-trips dominate
// otherwise (InnoDB amortises the same way with per-page lock bitmaps, thesis
// §4.4). Callers run it under the table latch, which — not the lock-table
// critical section — is what makes the grant atomic with the scan against
// concurrent inserters.
func (m *Manager) AcquireSIReadBatchInto(owner *core.Txn, keys []Key, buf []*core.Txn) (rivals []*core.Txn) {
	noteAcquires(len(keys))
	os := stateFor(owner)
	rivals = buf
	sc := batchPool.Get().(*batchScratch)
	defer func() {
		clear(sc.seen)
		clear(sc.grouped)
		batchPool.Put(sc)
	}()
	// Keys hash-stripe across shards, so consecutive scan keys land on
	// unrelated shards; group them first (a counting sort on the shard index)
	// to get one critical section per touched shard instead of one per key —
	// one in all for a single-shard table.
	sc.idx = resized(sc.idx, len(keys))
	sc.grouped = resized(sc.grouped, len(keys))
	sc.start = resized(sc.start, len(m.shards)+1)
	clear(sc.start)
	for i, key := range keys {
		sc.idx[i] = m.shardIndex(key)
		sc.start[sc.idx[i]+1]++
	}
	for i := 1; i < len(sc.start); i++ {
		sc.start[i] += sc.start[i-1]
	}
	// Filling a bucket advances its start to the next bucket's, so afterwards
	// bucket i spans [start[i-1], start[i]) — and bucket 0 starts at 0.
	for i, key := range keys {
		sc.grouped[sc.start[sc.idx[i]]] = key
		sc.start[sc.idx[i]]++
	}
	lo := 0
	for i, s := range m.shards {
		hi := sc.start[i]
		if lo < hi {
			s.lock()
			rivals = m.sireadBatchLocked(s, os, owner, sc.grouped[lo:hi], sc.seen, rivals)
			s.mu.Unlock()
		}
		lo = hi
	}
	return rivals
}

// resized returns s with length n, reusing its backing array when that is
// large enough; the elements are whatever the array held.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

func (m *Manager) sireadBatchLocked(s *shard, os *ownerState, owner *core.Txn, keys []Key, seen map[*core.Txn]bool, rivals []*core.Txn) []*core.Txn {
	for _, key := range keys {
		e := s.entryLocked(key)
		held := e.holders[owner]
		if held&SIRead != 0 {
			continue
		}
		if held&Exclusive != 0 && upgradeable(key.Kind) {
			continue // already upgraded
		}
		others := e.nExclusive
		if held&Exclusive != 0 {
			others--
		}
		if others > 0 && upgradeable(key.Kind) {
			for h, hm := range e.holders {
				if h != owner && hm&Exclusive != 0 && !seen[h] {
					seen[h] = true
					rivals = append(rivals, h)
				}
			}
		}
		m.grantLocked(os, e, owner, held, SIRead)
	}
	return rivals
}

// Inherit copies the locks held on src that follow its rows to dst: every
// SIREAD; on a key whose EXCLUSIVE lock stands for a version (upgradeable: a
// page) the EXCLUSIVE one too; onto a gap the SHARED ones — another's blocks
// the insert, so these are mostly the inserter's own. It implements lock
// inheritance for structure changes: when an insert splits a locked gap (the
// new key divides the key range a predicate read covered) or a page split
// moves rows to a new page, the readers' coverage must follow, or later
// writers into the new gap/page would escape conflict detection; and the
// page's writer must keep holding the rows it moved, or another writer of a
// moved row would find the new page unlocked. A copied blocking mode is listed
// on its owner, so ReleaseBlocking drops it; dst is then a new page or gap,
// which no request waits for. Nothing here blocks, so this completes
// immediately. The caller typically holds the table latch, making the
// inheritance atomic with the structure change. src and dst may live in
// different shards; both shard mutexes are held (in index order) so the copy
// is atomic. It reports whether src had a holder of a mode it copies.
func (m *Manager) Inherit(src, dst Key) bool {
	ss, ds := m.shardOf(src), m.shardOf(dst)
	lockPair(ss, ds)
	defer unlockPair(ss, ds)

	noteKeyHash()
	se := ss.table[src]
	if se == nil {
		return false
	}
	moved := SIRead
	if upgradeable(src.Kind) {
		moved |= Exclusive
	} else if dst.Kind == Gap {
		moved |= Shared
	}
	var de *entry
	for h, held := range se.holders {
		if held&moved == 0 {
			continue
		}
		if de == nil {
			de = ds.entryLocked(dst)
		}
		prev := de.holders[h]
		mode := held & moved &^ prev
		if mode == 0 {
			continue
		}
		hos := stateOf(h) // non-nil: h holds a lock on src
		lockOwner(hos)
		if hos.Unlocked() {
			mode &^= Exclusive | Shared // as in Convert: the release took its list
		}
		if mode == 0 || hos.Released() {
			// h's ReleaseAll already ran (or is draining shards): recording
			// a new grant would leak it. Its src locks are moments from
			// disappearing, so there is nothing to inherit.
			hos.Unlock()
			continue
		}
		listLocked(hos, de, prev, prev|mode) // listed ⇔ a holder of de
		if mode&SIRead != 0 {
			hos.SIReads++
		}
		hos.Unlock()
		de.countModes(prev, prev|mode)
		de.holders[h] = prev | mode
	}
	if de != nil {
		gcEntryLocked(de) // every holder of src was released
	}
	return de != nil
}

// ImplicitHeld reports whether w's implicit row locks are in force — whether
// its uncommitted versions still hold their rows ("Implicit row locks"): w
// has not begun to release its locks. By then a committing writer's versions
// are stamped and durable, and an aborting one's rolled back.
func ImplicitHeld(w *core.Txn) bool { return !w.Locks().Unlocked() }

// Probe is a write's look at key's entry, a row or the gap an insert splits,
// made under the row store's latch while it decides an implicit write
// ("Implicit row locks"). It never inserts an entry. It reports whether
// another owner's lock there — or, for an owner holding no blocking mode
// there, a parked request ahead — blocks an Exclusive request by owner. If
// not, it appends the SIREAD holders, the readers the write must mark, to buf
// and returns it, and on a row drops owner's own SIREAD, beside an Exclusive
// lock of owner's there or not: the write's version takes over the read
// (§3.7.3); a gap has no version (upgradeable). Blocked, it appends nothing:
// the writer acquires the lock instead, and probes again.
func (m *Manager) Probe(owner *core.Txn, key Key, buf []*core.Txn) (readers []*core.Txn, blocked bool) {
	noteProbe()
	s := m.shardOf(key)
	s.lock()
	defer s.mu.Unlock()
	noteKeyHash()
	e := s.table[key]
	if e == nil {
		return buf, false
	}
	own := e.holders[owner]
	if waitSetLocked(e, owner, own, Exclusive, own&(Shared|Exclusive) != 0, nil) != nil {
		return buf, true
	}
	readers = rivalsInto(e, owner, own, Exclusive, buf)
	if own&SIRead != 0 && key.Kind == Row {
		// The owner's version will expose the conflict to later readers.
		next := own &^ SIRead
		os := stateOf(owner) // non-nil: owner holds a lock on e
		lockOwner(os)
		os.SIReads--
		if next == 0 {
			l := *os.Held
			i, last := heldIndex(os, e), len(l)-1
			l[i], l[last] = l[last], lockstate.Held{}
			*os.Held = l[:last]
		}
		os.Unlock()
		if next == 0 {
			delete(e.holders, owner)
		} else {
			e.holders[owner] = next
		}
		e.countModes(own, next)
		gcEntryLocked(e)
	}
	return readers, false
}

// Convert makes holder's implicit lock on the row key explicit: an Exclusive
// entry held on holder's behalf and listed on its owner, which the caller —
// who found holder's version at the row's head — then acquires against and
// waits behind ("Implicit row locks"). It refuses, recording nothing, once
// holder's release has begun or been skipped: holder has committed or rolled
// back, and its version no longer holds the row. It reports whether it
// converted. The owner is marked used before the refusal is decided, so a
// release that found it unused had marked it unlocked first.
func (m *Manager) Convert(holder *core.Txn, key Key) bool {
	os := holder.Locks()
	os.MarkUsed()
	s := m.shardOf(key)
	s.lock()
	defer s.mu.Unlock()
	e := s.entryLocked(key)
	lockOwner(os)
	if os.Unlocked() {
		os.Unlock()
		gcEntryLocked(e)
		return false
	}
	prev := e.holders[holder]
	next := prev | Exclusive
	listLocked(os, e, prev, next)
	os.Unlock()
	e.holders[holder] = next
	e.countModes(prev, next)
	if e.q.n > 0 {
		// The grant was forced past any parked waiter: refresh their edges.
		m.sweepLocked(e)
	}
	return true
}

// lockPair locks one or two shards without self-deadlock: equal shards are
// locked once, distinct shards always in ascending index order.
func lockPair(a, b *shard) {
	if a.idx > b.idx {
		a, b = b, a
	}
	a.lock()
	if a != b {
		b.lock()
	}
}

func unlockPair(a, b *shard) {
	a.mu.Unlock()
	if a != b {
		b.mu.Unlock()
	}
}

// HoldsSIRead reports whether owner currently holds any SIREAD lock; it
// decides whether a committing transaction must be suspended (thesis §3.3).
func (m *Manager) HoldsSIRead(owner *core.Txn) bool {
	os := stateOf(owner)
	if os == nil {
		return false
	}
	lockOwner(os)
	defer os.Unlock()
	return os.SIReads > 0
}

// Holds reports whether owner holds mode on key. No engine code asks it;
// tests do.
func (m *Manager) Holds(owner *core.Txn, key Key, mode Mode) bool {
	s := m.shardOf(key)
	s.lock()
	defer s.mu.Unlock()
	noteKeyHash()
	e := s.table[key]
	return e != nil && e.holders[owner]&mode == mode
}

// DumpKey formats the lock-table state of one key for diagnostics: every
// holder with its transaction ID, status and held modes, and every parked
// waiter with its requested mode. Used by stuck-lock watchdogs in tests.
func (m *Manager) DumpKey(key Key) string {
	s := m.shardOf(key)
	s.lock()
	defer s.mu.Unlock()
	noteKeyHash()
	e := s.table[key]
	if e == nil {
		return fmt.Sprintf("%s: no entry", key)
	}
	out := fmt.Sprintf("%s: nS=%d nX=%d nSIRead=%d", key, e.nShared, e.nExclusive, e.nSIRead)
	for h, held := range e.holders {
		out += fmt.Sprintf("\n  holder txn=%d status=%v modes=%v", h.ID(), h.Status(), held)
	}
	for w := e.q.head; w != nil; w = w.next {
		out += fmt.Sprintf("\n  waiter txn=%d status=%v mode=%v conv=%v edges=%d",
			w.owner.ID(), w.owner.Status(), w.mode, w.conv, len(w.edges))
	}
	return out
}

// Stats reports the table census, used to verify that SIREAD cleanup keeps
// the lock table bounded (the concern of thesis §4.3.1/§4.6.1), plus the
// cumulative wait-path instrumentation of the contended AcquireInto. Counters
// are aggregated across shards: Keys is exact (keys partition across
// shards) and Owners is deduplicated (one owner usually holds keys in
// several shards).
type Stats struct {
	Keys   int // distinct locked keys
	Owners int // distinct owners holding at least one lock
	Shards int // configured shard count

	// Waits counts acquires that found any blocker; SpinGrants the subset
	// resolved during the bounded spin (no graph registration, no park);
	// Parks the subset that enqueued and slept. Wakeups counts handoff
	// signals delivered — with targeted wakeups this tracks grants one to
	// one, where the old Broadcast design woke every waiter on every
	// release. Timeouts counts parks withdrawn by the wait timeout, and
	// WaitTime is the cumulative parked duration.
	Waits      uint64
	SpinGrants uint64
	Parks      uint64
	Wakeups    uint64
	Timeouts   uint64
	WaitTime   time.Duration
}

// StatsSnapshot returns current counters aggregated across all shards. The
// shards are visited one at a time, so the snapshot is not a single atomic
// cut — callers quiesce first when they need exact numbers, as the tests do.
func (m *Manager) StatsSnapshot() Stats {
	st := Stats{Shards: len(m.shards)}
	owners := make(map[*core.Txn]struct{})
	for _, s := range m.shards {
		s.lock()
		st.Keys += len(s.table)
		st.Waits += s.waits
		st.SpinGrants += s.spinGrants
		st.Parks += s.parks
		st.Wakeups += s.wakeups
		st.Timeouts += s.timeouts
		st.WaitTime += time.Duration(s.waitNanos)
		for _, e := range s.table {
			for o := range e.holders {
				owners[o] = struct{}{}
			}
		}
		s.mu.Unlock()
	}
	st.Owners = len(owners)
	return st
}
