// Package mvcc implements the multiversion row store beneath the engine:
// per-key version chains ordered newest-first, snapshot visibility checks,
// tombstoned deletes and First-Committer-Wins support. It keeps rows only: the
// Berkeley-DB-style page-granularity mode versions pages, and keeps their
// write stamps itself (ssidb's page strategy), taking nothing from here but
// the trees' page topology and a split hook.
//
// Versions never carry an explicit commit timestamp, and never point at a
// transaction record either: a version points at its creator's core.Cell —
// id, commit timestamp, and the record for as long as some snapshot can
// still see the version as newer than its own. Visibility,
// First-Committer-Wins and pruning read the cell's commit timestamp, which
// the core package publishes atomically at commit; conflict marking follows
// the cell to the record, which core cuts loose when it retires the
// transaction. That keeps the thesis prototypes' shape, where a row/page
// version points at its creating transaction (assumption 3 of §3.2), without
// their cost: nothing in this package that outlives a call keeps a
// transaction record alive, so a row that is never overwritten pins 24 bytes,
// not its creator's record and everything that references.
//
// # Rows
//
// A row is one 48-byte object, its chain: the newest version of the key,
// stored in place, with the older versions linked behind it. The B+tree slot
// points at the chain and the slot's key string is the only copy of the key
// (the tree copies a key once, when it is first inserted, and every key this
// package hands out — ScanItem.Key, Successor, Row.Key — is that string;
// value slices, by contrast, are retained as given). A first insert therefore
// allocates the chain and nothing else; a superseding write copies the old
// head out to a Version and overwrites the head in place; Rollback and the
// vacuum do the reverse. All of it happens under the partition latch, and the
// invariant that makes overwriting in place safe is that no *Version — least
// of all the head's address — outlives the latch hold that obtained it: reads
// copy Data and Creator out into their ReadResult and keep no pointer into
// the chain.
//
// Locate hands out a Row: the slot's key string, the chain and the partition,
// found by one descent. A Row is an address, not a reading — it says where
// the row's state is, nothing about what it was — and it stays valid for the
// life of the table, because neither thing it names ever changes identity: no
// key ever leaves a tree (the trees are insert-only, deletes are tombstone
// versions), and a slot's chain is installed once, by the structural insert's
// LookupOrInsert(key, &chain{}), and never replaced — a page split moves slots
// (the key string and the chain pointer in them) between pages, not chains.
// That is the whole safety argument for operating through a Row with no
// further descent: every such operation takes the partition latch and reads
// or writes the chain's state as it then is, exactly as the by-key operation
// would after walking to the same chain. It is what lets the engine name a
// row's lock by Row.Key (the paper's prototypes lock the record the descent
// found, not a copy of the search key), check First-Committer-Wins, install
// and undo a write with one descent between them.
//
// Superseded versions are recycled. A version the vacuum cuts off a chain, or
// one a Rollback moves back into the head, is unreachable from the moment it
// is unlinked — the chain was the only thing pointing at it, and by the
// invariant above nobody holds a *Version across latch holds — so it goes,
// zeroed (it must pin neither its data nor its creator's cell), onto its
// partition's free list, and the next superseding write of that partition
// copies the old head into it instead of allocating. The list is guarded by
// the partition latch held exclusively, which every one of those three
// already holds, so it needs no pool and no atomics; it is bounded by the
// table's vacuum threshold (what one sweep's worth of writes can use before
// the next sweep refills it), and anything beyond that is left to the
// collector.
//
// # Partitioned store
//
// A Table is hash-partitioned into power-of-two shards, each an independent
// latch + B+tree, so point reads and writes on different partitions never
// touch the same latch (the storage-engine scaling move the paper delegates
// to its hosts, and the one PostgreSQL's SSI relies on — Ports & Grittner,
// VLDB 2012). Each partition's tree allocates page numbers from a disjoint
// range, so a page number names one page of the whole table: page-granularity
// lock keys and write stamps keep their meaning, and the split hook
// (SetSplitHook) runs under the latch of the partition that split.
//
// Ordered scans are a k-way merge over the per-partition trees, performed in
// bounded lock-coupled rounds rather than under one table-long latch hold: a
// round takes every partition latch in shared mode (ascending index order,
// the same order structural inserts take them exclusively, see Write), emits
// up to scanChunk keys from the merge frontier, lets the caller install the
// emitted keys' SIREAD/gap protection while the latches are still held, and
// only then releases them; the next round re-acquires the latches and
// re-seeks the iterators of any partition whose tree changed in between
// (btree.Mods/IterAfter). Writers therefore wait at most one round — the
// scan-length writer stall the paper never requires (Cahill §3.5 only needs
// predicate protection atomic with the keys actually visited; PostgreSQL's
// SSI makes the same point, Ports & Grittner, VLDB 2012). The precise
// invariant argument is on ScanWith.
//
// Version pruning is not done on the write path. A superseding write lists
// its chain on the partition's dirty list, and a vacuum sweep driven by the
// transaction manager's OldestActiveSnapshot watermark visits exactly the
// listed chains, cutting versions no snapshot can reach — work proportional
// to garbage, not to partition width. The list needs no bound: a chain is on
// it at most once, so at 8 bytes an entry it never outgrows a sixth of the
// 48-byte rows it lists, let alone the superseded versions they hold.
package mvcc

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ssi/internal/btree"
	"ssi/internal/core"
)

// Version is one version of a row. Versions form a singly linked list from
// newest to oldest. Creator is the creating transaction's cell, never nil and
// never the record: its commit timestamp is 0 until (unless) the creator
// commits, and its record is gone once every snapshot sees the version.
type Version struct {
	Data      []byte
	Creator   *core.Cell
	Older     *Version
	Tombstone bool
	// queued is the chain's, not the version's — it lives here, in the
	// padding behind Tombstone, because a field of chain beside the embedded
	// head would push the row from the 48-byte allocation class into the
	// 64-byte one. It is only ever set on a chain's head: true exactly while
	// the chain sits on one dirty list — the shard's live list or a sweep's
	// stolen work list (never both, never twice): queueDirtyLocked sets it as
	// it appends, and sweeps clear it as they take a chain off a list. The
	// strict one-list invariant is what keeps sweep visit counts (and the dead
	// estimate) proportional to real garbage, and the list itself bounded.
	queued bool
}

// chain is the version list for one key, and the whole of what a row costs
// beyond its tree slot: the head version is the chain itself (see "Rows" in
// the package comment). A chain with a nil Creator holds no version — a key
// whose only write was rolled back. Guarded by the owning shard latch.
type chain struct{ Version }

// first returns the newest version, nil for an empty chain. The pointer is
// into the chain: it must not outlive the caller's latch hold.
func (c *chain) first() *Version {
	if c.Creator == nil {
		return nil
	}
	return &c.Version
}

// push makes a version by w the head. The previous head, if any, is copied out
// behind it — into a version off sh's free list if it has one, which is what
// keeps a steady-state overwrite from allocating. Caller holds sh.mu
// exclusively.
func (c *chain) push(sh *shard, w *core.Cell, data []byte, tombstone bool) {
	var older *Version
	if c.Creator != nil {
		older = sh.free
		if older != nil {
			sh.free, sh.nfree = older.Older, sh.nfree-1
		} else {
			older = new(Version)
		}
		*older = c.Version
		older.queued = false
	}
	c.Version = Version{Data: data, Creator: w, Older: older, Tombstone: tombstone, queued: c.queued}
}

// pop undoes push: the next older version moves back into the head, and the
// object it was copied out to is recycled. Caller holds sh.mu exclusively.
func (c *chain) pop(sh *shard) {
	queued := c.queued
	if older := c.Older; older != nil {
		c.Version = *older
		sh.recycle(older)
	} else {
		c.Version = Version{}
	}
	c.queued = queued
}

// recycle puts v, which nothing references any more, on the free list — zeroed,
// so that it pins neither its data nor its creator's cell — unless the list is
// full, in which case v is left to the collector. Caller holds sh.mu
// exclusively.
func (sh *shard) recycle(v *Version) {
	if sh.nfree >= sh.tb.vacuumEvery {
		return
	}
	*v = Version{Older: sh.free}
	sh.free, sh.nfree = v, sh.nfree+1
}

// ReadResult reports the outcome of a snapshot read of one key.
type ReadResult struct {
	// Value is the visible data; meaningful only if Found.
	Value []byte
	// Found is true if a live (non-tombstone) version is visible.
	Found bool
	// VisibleCreator is the cell of the transaction that created the visible
	// version (live or tombstone), or nil if no version is visible. Used by
	// the history recorder to attribute wr-dependencies by id, which the
	// cell keeps after the record is gone.
	VisibleCreator *core.Cell
	// NewerWriters lists the creators of versions newer than the one read
	// (committed after the snapshot, or still uncommitted by another
	// transaction). Each is the target of an rw-antidependency from the
	// reader (thesis Figure 3.4 lines 8-9).
	NewerWriters []*core.Txn
}

// pageShardShift positions the partition index in the high bits of every
// page number, giving each partition 2^24 page ids of its own.
const pageShardShift = 24

// DefaultVacuumEvery is the per-partition count of superseded versions that
// triggers an asynchronous vacuum sweep of that partition.
const DefaultVacuumEvery = 1024

// ShardCount is the table-partition sizing policy: core.ShardCount's
// rounding and clamping, but defaulting to GOMAXPROCS rather than 4× it —
// unlike the lock table's stripes, partitions carry whole B+trees and every
// ordered scan visits all of them, so there is no over-provisioning.
func ShardCount(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return core.ShardCount(n)
}

// Config sizes a Table.
type Config struct {
	// PageMaxKeys is the B+tree page capacity of each partition's tree.
	PageMaxKeys int
	// Shards is the partition count, normalised by ShardCount.
	Shards int
	// Horizon returns the oldest snapshot any active transaction could read
	// at (typically core.Manager.OldestActiveSnapshot); versions superseded
	// before it are reclaimable.
	Horizon func() core.TS
	// VacuumEvery overrides DefaultVacuumEvery (values <= 0 keep the
	// default). Small values make vacuum eager; tests use 1.
	VacuumEvery int
}

// shard is one partition: an independently latched B+tree of version chains
// plus its vacuum bookkeeping.
type shard struct {
	tb   *Table
	mu   sync.RWMutex
	tree *btree.Tree

	// free is the partition's list of recycled versions, linked through Older
	// and otherwise zero; nfree is its length, at most the table's
	// vacuumEvery. Filled by pruneChain and pop, drained by push, all under mu
	// held exclusively (see "Rows" in the package comment).
	free  *Version
	nfree int64

	// dead estimates the partition's superseded (eventually reclaimable)
	// versions since the last vacuum; reaching the table's vacuumEvery
	// triggers an async sweep.
	dead atomic.Int64
	// dirty lists the chains holding superseded versions since the last
	// sweep, each once (see Version.queued). Guarded by mu.
	dirty []*chain
	spare []*chain // recycled backing array for dirty (guarded by mu)
	// sweepMu serialises sweeps of this partition (a synchronous Vacuum
	// parks behind an in-flight async sweep instead of spinning);
	// vacuuming additionally dedups the async triggers so noteDead never
	// piles up goroutines.
	sweepMu   sync.Mutex
	vacuuming atomic.Bool
	// stalledBelow, when non-zero, records that a sweep against watermark
	// stalledBelow-1 reclaimed nothing (the watermark was pinned by an old
	// snapshot): write-path re-triggers are suppressed until the watermark
	// reaches stalledBelow, at which point noteDead re-arms by itself —
	// a low-garbage partition no longer depends on a later MaybeVacuum
	// delivery to unpark its dead versions. MaybeVacuum and productive
	// sweeps clear it.
	stalledBelow atomic.Uint64

	_ [24]byte // keep neighbouring shard latches off one cache line
}

// Table is one table: a hash-partitioned set of latch-protected B+trees of
// version chains.
type Table struct {
	name    string
	shards  []*shard
	mask    uint32
	horizon func() core.TS

	vacuumEvery int64

	// scanPool recycles merge state (iterator and heap slices) across scans
	// of this table, so the merged path allocates nothing per scan.
	scanPool sync.Pool

	vacuumRuns      atomic.Uint64
	versionsPruned  atomic.Uint64
	vacuumKeyVisits atomic.Uint64
}

// NewTable creates a table partitioned per cfg.
func NewTable(name string, cfg Config) *Table {
	if cfg.PageMaxKeys <= 0 {
		cfg.PageMaxKeys = btree.DefaultMaxKeys
	}
	if cfg.Horizon == nil {
		cfg.Horizon = func() core.TS { return 0 } // nothing is ever reclaimable
	}
	n := ShardCount(cfg.Shards)
	tb := &Table{
		name:        name,
		shards:      make([]*shard, n),
		mask:        uint32(n - 1),
		horizon:     cfg.Horizon,
		vacuumEvery: DefaultVacuumEvery,
	}
	if cfg.VacuumEvery > 0 {
		tb.vacuumEvery = int64(cfg.VacuumEvery)
	}
	for i := range tb.shards {
		base := uint32(i) << pageShardShift
		limit := base + 1<<pageShardShift
		if n == 1 {
			limit = 0 // single tree: the whole page-number space, as before
		}
		tb.shards[i] = &shard{tb: tb, tree: btree.NewWithPageBase(cfg.PageMaxKeys, base, limit)}
	}
	return tb
}

// Name returns the table name.
func (tb *Table) Name() string { return tb.name }

// Shards returns the partition count.
func (tb *Table) Shards() int { return len(tb.shards) }

// shardOf routes a key to its partition (FNV-1a over the key bytes).
func (tb *Table) shardOf(key []byte) *shard {
	return tb.shards[core.Fnv32aBytes(core.Fnv32aInit(), key)&tb.mask]
}

// lockAll / unlockAll take every partition latch exclusively in ascending
// index order — the same order merged scans take them shared — so mixed
// scan/insert workloads cannot deadlock.
func (tb *Table) lockAll() {
	for _, sh := range tb.shards {
		sh.mu.Lock()
	}
}

func (tb *Table) unlockAll() {
	for _, sh := range tb.shards {
		sh.mu.Unlock()
	}
}

// Len returns the number of distinct keys ever inserted (including keys
// whose newest version is a tombstone).
func (tb *Table) Len() int {
	n := 0
	for _, sh := range tb.shards {
		sh.mu.RLock()
		n += sh.tree.Len()
		sh.mu.RUnlock()
	}
	return n
}

// PageCount returns the number of B+tree pages allocated across all
// partitions of this table.
func (tb *Table) PageCount() int {
	n := 0
	for _, sh := range tb.shards {
		sh.mu.RLock()
		n += sh.tree.PageCount()
		sh.mu.RUnlock()
	}
	return n
}

// visible reports whether version v is visible to transaction t reading at
// snapshot snap: it is t's own write, or it committed before snap.
func visible(v *Version, t *core.Txn, snap core.TS) bool {
	if ct := v.Creator.CommitTS(); ct != 0 {
		return ct < snap
	}
	return v.Creator.Txn() == t
}

// Row is the address of a row that exists: the tree's own key string, the
// chain and the partition, as Locate found them. It is valid for the life of
// the table, however the tree splits and whatever is written in between (see
// "Rows" in the package comment), and says nothing about the row's state:
// every method takes the partition latch and works on the chain as it then is.
// The zero Row addresses nothing: it has no use but IsZero and NewestCommitTS.
type Row struct {
	key string
	c   *chain
	sh  *shard
}

// Locate finds the row of key, if key has any version chain at all (live,
// dead or uncommitted) — which is also what decides whether a write must
// follow the insert protocol. One descent, under the partition's read latch.
func (tb *Table) Locate(key []byte) (Row, bool) {
	sh := tb.shardOf(key)
	sh.mu.RLock()
	stored, v, ok := sh.tree.Lookup(key)
	sh.mu.RUnlock()
	if !ok {
		return Row{}, false
	}
	return Row{key: stored, c: v.(*chain), sh: sh}, true
}

// IsZero reports whether r is the zero Row, which Locate returns for a key
// that has no row.
func (r Row) IsZero() bool { return r.c == nil }

// Key returns the store's own copy of the row's key, which the caller may
// keep (to name the row's lock by, say).
func (r Row) Key() string { return r.key }

// Read performs a snapshot read of the row for t at snapshot snap, also
// reporting the creators of any newer versions for conflict marking. Reading
// at the largest timestamp is the locking read of S2PL and of SELECT FOR
// UPDATE-style reads (thesis §4.4): the newest committed version, or t's own
// uncommitted one — under a held lock no other uncommitted version can exist.
func (r Row) Read(t *core.Txn, snap core.TS) ReadResult {
	r.sh.mu.RLock()
	defer r.sh.mu.RUnlock()
	return readChain(r.c, t, snap)
}

// Read is Locate and Row.Read in one latch hold; a key without a row reads as
// absent.
func (tb *Table) Read(t *core.Txn, snap core.TS, key []byte) ReadResult {
	sh := tb.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, ok := sh.tree.Get(key)
	if !ok {
		return ReadResult{}
	}
	return readChain(v.(*chain), t, snap)
}

func readChain(c *chain, t *core.Txn, snap core.TS) ReadResult {
	var res ReadResult
	for v := c.first(); v != nil; v = v.Older {
		if visible(v, t, snap) {
			res.VisibleCreator = v.Creator
			if !v.Tombstone {
				res.Value = v.Data
				res.Found = true
			}
			return res
		}
		// A creator without a record was retired: its commit precedes every
		// active snapshot, so its version is not newer than anyone's.
		if w := v.Creator.Txn(); w != nil && w != t && !w.Aborted() {
			res.NewerWriters = append(res.NewerWriters, w)
		}
	}
	return res
}

// NewestCommitTS returns the commit timestamp of the row's newest committed
// version, or 0 if none — or no row: r may be zero. It implements the
// First-Committer-Wins check: a writer whose snapshot predates this timestamp
// must abort.
func (r Row) NewestCommitTS() core.TS {
	if r.c == nil {
		return 0
	}
	r.sh.mu.RLock()
	defer r.sh.mu.RUnlock()
	for v := r.c.first(); v != nil; v = v.Older {
		if ct := v.Creator.CommitTS(); ct != 0 {
			return ct
		}
	}
	return 0
}

// Write installs a new uncommitted version of the row created by t. tombstone
// marks a delete. The caller must hold the appropriate exclusive lock and
// have already applied the First-Committer-Wins check. A second write by the
// same transaction replaces its own pending version in place. data is retained
// and must not be modified afterwards.
func (r Row) Write(t *core.Txn, data []byte, tombstone bool) {
	w := t.Cell() // t's first write allocates it, on t's own goroutine
	r.sh.mu.Lock()
	r.sh.tb.writeChainLocked(r.sh, r.c, w, data, tombstone)
	r.sh.mu.Unlock()
}

// Rollback removes t's pending version of the row, restoring the chain to its
// pre-transaction state. Called for each row t wrote when it aborts; a row
// written twice is undone by the first call.
func (r Row) Rollback(t *core.Txn) {
	r.sh.mu.Lock()
	defer r.sh.mu.Unlock()
	if c := r.c; c.Creator != nil && c.Creator.Txn() == t {
		if c.Older != nil {
			r.sh.dead.Add(-1) // the superseded version writeChainLocked counted is live again
		}
		c.pop(r.sh)
	}
}

// Write is Locate and Row.Write for a key that may have no row yet: an absent
// key is inserted, and the row returned either way. key is only borrowed (a
// structural insert copies it into the tree).
//
// Writes to existing keys touch only the key's partition latch. A structural
// insert with an onInsert callback takes every partition latch exclusively:
// the callback receives the key's *global* successor at insertion time,
// *before* the key becomes visible to scans or successor queries, and the
// engine uses it to inherit SIREAD gap locks onto the new key's gap
// atomically with the structure change — an atomicity that spans partitions
// because the successor may live in any of them. Write reports whether a
// structural insert happened.
func (tb *Table) Write(t *core.Txn, key []byte, data []byte, tombstone bool, onInsert func(succ string, hasSucc bool)) (row Row, inserted bool) {
	w := t.Cell() // t's first write allocates it, on t's own goroutine
	sh := tb.shardOf(key)
	sh.mu.Lock()
	stored, v, ok := sh.tree.Lookup(key)
	if ok || onInsert == nil {
		if !ok {
			// No gap protocol to run (page-granularity and lock-free
			// modes): the insert is local to this partition.
			stored, v, _ = sh.tree.LookupOrInsert(key, &chain{})
		}
		row = Row{key: stored, c: v.(*chain), sh: sh}
		tb.writeChainLocked(sh, row.c, w, data, tombstone)
		sh.mu.Unlock()
		return row, !ok
	}
	sh.mu.Unlock()

	// Structural insert under the gap protocol: take all partition latches
	// so the global successor is exact and the inheritance runs atomically
	// with the key becoming visible (no scan holds any partition latch, no
	// other structural insert is in flight).
	tb.lockAll()
	defer tb.unlockAll()
	stored, v, ok = sh.tree.Lookup(key)
	if !ok {
		// (Losing a race for the key between the latches cannot happen under
		// the engine's exclusive row lock, but stay correct without it.)
		onInsert(tb.successorAllLocked(key))
		stored, v, _ = sh.tree.LookupOrInsert(key, &chain{})
	}
	row = Row{key: stored, c: v.(*chain), sh: sh}
	tb.writeChainLocked(sh, row.c, w, data, tombstone)
	return row, !ok
}

// writeChainLocked pushes (or replaces in place) the pending version of the
// transaction whose cell is w, maintains the partition's superseded-version
// estimate and queues the chain on the dirty list for the next vacuum sweep.
// Caller holds the shard latch exclusively.
func (tb *Table) writeChainLocked(sh *shard, c *chain, w *core.Cell, data []byte, tombstone bool) {
	if c.Creator == w {
		c.Data = data
		c.Tombstone = tombstone
		return
	}
	superseding := c.Creator != nil
	c.push(sh, w, data, tombstone)
	if superseding {
		sh.queueDirtyLocked(c)
		tb.noteDead(sh, 1)
	}
}

// queueDirtyLocked appends c to the shard's dirty list unless it is already
// on one. Caller holds the shard latch exclusively.
func (sh *shard) queueDirtyLocked(c *chain) {
	if !c.queued {
		c.queued = true
		sh.dirty = append(sh.dirty, c)
	}
}

// noteDead bumps the partition's superseded-version estimate and triggers an
// asynchronous vacuum sweep when it reaches vacuumEvery. If an earlier sweep
// found the watermark pinned (stalledBelow), the re-trigger waits until the
// watermark has actually advanced past the failed sweep's horizon — and
// then fires from the write path itself, so parked garbage never depends on
// a later MaybeVacuum delivery.
func (tb *Table) noteDead(sh *shard, n int64) {
	d := sh.dead.Add(n)
	if d < tb.vacuumEvery {
		return
	}
	if sb := sh.stalledBelow.Load(); sb != 0 {
		// Probe the watermark on every 64th superseding write while parked:
		// OldestActiveSnapshot is a handful of atomic loads, but this path
		// runs under the exclusive partition latch on a write-heavy
		// partition — exactly when the watermark is pinned.
		if d%64 != 0 || tb.horizon() < sb {
			return
		}
	}
	tb.tryVacuumShard(sh)
}

// SetSplitHook installs a callback invoked under the owning partition latch
// whenever a B+tree page split moves keys to a new page.
func (tb *Table) SetSplitHook(fn func(oldPage, newPage uint32)) {
	tb.lockAll()
	for _, sh := range tb.shards {
		sh.tree.OnSplit = fn
	}
	tb.unlockAll()
}

// ScanItem is one key visited by Scan. Key is the store's own copy of the key
// and may be kept.
type ScanItem struct {
	Key  string
	Page uint32
	ReadResult
}

// scanChunk bounds how many keys one lock-coupled scan round emits while
// holding the partition latches, so a long scan stalls a writer for at most
// one round rather than for its whole duration.
const scanChunk = 256

// Scan visits keys in [from, ...) in order, calling fn for each until fn
// returns false. Every key with any chain is visited — including keys whose
// visible state is "absent" — because the scanner must detect phantom
// conflicts from invisible newer versions (thesis §3.5: inserted rows and
// tombstones newer than the snapshot still trigger conflict detection). The
// callback decides when the range ends, which lets the engine lock the gap
// beyond the last matching key per the next-key protocol.
func (tb *Table) Scan(t *core.Txn, snap core.TS, from []byte, fn func(ScanItem) bool) {
	tb.ScanWith(t, snap, from, fn, nil)
}

// ScanWith is Scan plus a flush callback for installing predicate protection
// incrementally. The iteration is a k-way merge over the per-partition
// ordered iterators, performed in bounded lock-coupled rounds:
//
//   - a round acquires every partition latch in shared mode, in ascending
//     index order (the order lockAll takes them exclusively, so mixed
//     scan/insert workloads cannot deadlock), re-seeking the iterator of any
//     partition whose tree changed since the previous round (btree.Mods;
//     re-seek is IterAfter the last emitted key, so the merge resumes at the
//     exact global frontier);
//   - it emits up to scanChunk keys in global key order;
//   - flush (if non-nil) is invoked while the round's latches are still
//     held, once per round; serializable SI scans use it to acquire the
//     SIREAD row/gap (or page) locks for the keys emitted since the previous
//     flush. exhausted is false until the final flush, which reports whether
//     the iteration ran off the end of the table (rather than being stopped
//     by fn);
//   - the latches are released, writers drain, and the next round begins.
//
// Memory: the merge state is recycled per table, items are handed to fn by
// value, and nothing is kept once ScanWith returns, so the iteration itself
// allocates nothing per partition, round or item (only an item's
// NewerWriters, where newer versions exist). A caller that collects the
// items owns that buffer and its recycling — the engine's scan context does.
//
// The SIREAD-atomicity invariant this preserves — no insert can land between
// a key being emitted and its SIREAD protection being installed, at any
// point of the scan:
//
//  1. During a round every partition latch is held shared, and every insert
//     takes at least its key's partition latch exclusively (gap-protocol
//     structural inserts take all of them), so no key anywhere in the table
//     becomes visible while a round is emitting.
//  2. Each round's emitted keys receive their locks in that round's flush,
//     before the latches drop. So whenever no latch is held, every emitted
//     key ≤ the frontier F (the last emitted key) is already protected.
//  3. An insert of key x between rounds therefore falls into two cases.
//     If x > F, the next round observes the tree change and re-seeks past F,
//     so the merge emits x itself and the reader marks the rw-conflict from
//     the invisible newer version (Figure 3.4). If x ≤ F, the inserter's
//     next-key gap lock lands on succ(x), the smallest key above x — and
//     succ(x) ≤ F always (F itself is a key greater than x), so succ(x) was
//     emitted and its gap lock installed by an earlier flush; the inserter's
//     exclusive acquisition reports the scanner as a rival and the conflict
//     is marked from the writer side (Figure 3.7).
//  4. Page granularity replaces gap locks with leaf-page SIREAD coverage:
//     every leaf that could receive an in-range key is either the descent
//     leaf of `from` (locked up front via AppendScanPathPages), the leaf of an
//     emitted key, or the boundary leaf — all SIREAD-locked by their round's
//     flush — and page splits inherit that coverage onto the new page under
//     the partition latch. The engine reads each page's committed writer
//     stamps only after its flush acquired the page lock, so a concurrent
//     page writer is either still a lock rival or already stamped.
func (tb *Table) ScanWith(t *core.Txn, snap core.TS, from []byte, fn func(ScanItem) bool, flush func(exhausted bool)) {
	m := tb.acquireMerge(from)
	defer tb.releaseMerge(m)
	for {
		m.latchRound()
		stopped := false
		for n := 0; n < scanChunk && m.valid(); n++ {
			it := m.top()
			item := ScanItem{Key: it.Key(), Page: it.Page(), ReadResult: readChain(it.Value().(*chain), t, snap)}
			m.last, m.emitted = item.Key, true
			if !fn(item) {
				stopped = true
				break
			}
			m.advance()
		}
		done := stopped || !m.valid()
		if flush != nil {
			flush(done && !stopped)
		}
		m.unlatchRound()
		if done {
			return
		}
	}
}

// merge is the lock-coupled k-way merge state: one iterator per partition
// (kept across rounds, re-seeked only when its tree changed) and a binary
// min-heap of the valid ones keyed by their current key; keys are globally
// unique so no tie-break is needed. Instances are recycled via the table's
// scanPool.
type merge struct {
	tb      *Table
	from    []byte
	last    string // last emitted key, if emitted; the re-seek anchor between rounds
	emitted bool
	iters   []btree.Iter
	mods    []uint64 // btree.Mods observed when iters[i] was (re)positioned
	heap    []int    // partition indices, heap-ordered by current key
	started bool
}

func (tb *Table) acquireMerge(from []byte) *merge {
	m, _ := tb.scanPool.Get().(*merge)
	if m == nil {
		n := len(tb.shards)
		m = &merge{iters: make([]btree.Iter, n), mods: make([]uint64, n), heap: make([]int, 0, n)}
	}
	m.tb = tb
	m.from = from
	m.last, m.emitted = "", false
	m.started = false
	return m
}

func (tb *Table) releaseMerge(m *merge) {
	for i := range m.iters {
		m.iters[i] = btree.Iter{} // drop node references held across reuse
	}
	m.tb, m.from, m.last = nil, nil, ""
	m.heap = m.heap[:0]
	tb.scanPool.Put(m)
}

// latchRound acquires every partition latch shared (ascending), repositions
// the iterators of partitions whose trees changed since they were last
// positioned, and rebuilds the heap.
func (m *merge) latchRound() {
	shards := m.tb.shards
	for _, sh := range shards {
		sh.mu.RLock()
	}
	m.heap = m.heap[:0]
	for i, sh := range shards {
		mods := sh.tree.Mods()
		if !m.started || m.mods[i] != mods {
			if !m.emitted {
				m.iters[i] = sh.tree.IterFrom(m.from)
			} else {
				m.iters[i] = sh.tree.IterAfter(m.last)
			}
			m.mods[i] = mods
		}
		if m.iters[i].Valid() {
			m.heap = append(m.heap, i)
		}
	}
	m.started = true
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
}

func (m *merge) unlatchRound() {
	for _, sh := range m.tb.shards {
		sh.mu.RUnlock()
	}
}

func (m *merge) valid() bool { return len(m.heap) > 0 }

// top returns the iterator positioned on the globally smallest key.
func (m *merge) top() *btree.Iter { return &m.iters[m.heap[0]] }

// advance moves the top iterator forward and restores heap order.
func (m *merge) advance() {
	it := &m.iters[m.heap[0]]
	it.Next()
	if !it.Valid() {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	if len(m.heap) > 0 {
		m.siftDown(0)
	}
}

func (m *merge) less(a, b int) bool {
	return m.iters[m.heap[a]].Key() < m.iters[m.heap[b]].Key()
}

func (m *merge) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(m.heap) && m.less(l, small) {
			small = l
		}
		if r < len(m.heap) && m.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		m.heap[i], m.heap[small] = m.heap[small], m.heap[i]
		i = small
	}
}

// LeafPage, PathPages, InsertWillSplit and Successor expose the underlying
// trees' page topology for the page-granularity engine mode and the gap
// locking protocol.
func (tb *Table) LeafPage(key []byte) uint32 {
	sh := tb.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.tree.LeafPage(key)
}

// PathPages returns the root-to-leaf page path for key within its partition.
func (tb *Table) PathPages(key []byte) []uint32 {
	sh := tb.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.tree.PathPages(key)
}

// AppendScanPathPages appends to out the root-to-leaf descent paths for
// `from` in every partition — a merged scan descends all of them, so
// page-granularity scans read-lock them all, as Berkeley DB does while
// descending one tree (out is the caller's recycled buffer, as in
// lock.AcquireInto: the call allocates nothing once it has grown). The
// latch discipline matches a scan round exactly: every partition latch is
// held shared together (ascending order, bounded duration), so the returned
// paths form one atomic cut across partitions — a split cannot land between
// two partitions' descents within one call. Splits after the call returns
// are the caller's problem: the engine acquires the paths' page locks and
// recomputes until a pass finds every page already held.
func (tb *Table) AppendScanPathPages(out []uint32, from []byte) []uint32 {
	for _, sh := range tb.shards {
		sh.mu.RLock()
	}
	for _, sh := range tb.shards {
		out = sh.tree.AppendPathPages(out, from)
	}
	for _, sh := range tb.shards {
		sh.mu.RUnlock()
	}
	return out
}

// InsertWillSplit reports whether inserting key would split its leaf page.
func (tb *Table) InsertWillSplit(key []byte) bool {
	sh := tb.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.tree.InsertWillSplit(key)
}

// Successor returns the smallest key strictly greater than key across all
// partitions. Partitions are inspected one at a time (no two latches are
// ever held together on this path), so the result can be momentarily stale
// against concurrent inserts; every caller (the gap-locking protocol) wraps
// it in an acquire-and-revalidate loop, and tree keys are never removed, so
// a re-read converges.
func (tb *Table) Successor(key []byte) (string, bool) {
	best, found := "", false
	for _, sh := range tb.shards {
		sh.mu.RLock()
		s, ok := sh.tree.Successor(key)
		sh.mu.RUnlock()
		if ok && (!found || s < best) {
			best, found = s, true
		}
	}
	return best, found
}

// successorAllLocked is Successor with every partition latch already held.
func (tb *Table) successorAllLocked(key []byte) (string, bool) {
	best, found := "", false
	for _, sh := range tb.shards {
		if s, ok := sh.tree.Successor(key); ok && (!found || s < best) {
			best, found = s, true
		}
	}
	return best, found
}

// ---------------------------------------------------------------------------
// Vacuum

// vacuumChunk bounds how many keys one latch hold processes, so a sweep
// never stalls readers or writers of the partition for long.
const vacuumChunk = 256

// VacuumStats reports what a sweep reclaimed.
type VacuumStats struct {
	// VersionsPruned is the number of row versions cut out of chains.
	VersionsPruned int
}

// Vacuum sweeps every partition against the current watermark, synchronously,
// and returns what it reclaimed. Safe to run concurrently with readers and
// writers; the sweep takes each partition latch in short chunks.
func (tb *Table) Vacuum() VacuumStats {
	var st VacuumStats
	for _, sh := range tb.shards {
		// Parks behind any in-flight async sweep of the same partition, so
		// the returned counts are this call's own.
		sh.sweepMu.Lock()
		st.VersionsPruned += tb.vacuumShard(sh)
		sh.sweepMu.Unlock()
	}
	return st
}

// MaybeVacuum re-arms stalled partitions (the watermark advanced) and kicks
// asynchronous sweeps for partitions whose superseded-version estimate has
// crossed the threshold. Called from the engine's watermark-advance hook.
// It is an accelerant, not a correctness requirement: noteDead re-arms a
// stalled partition by itself once it observes the watermark past the failed
// sweep's horizon.
func (tb *Table) MaybeVacuum() {
	for _, sh := range tb.shards {
		sh.stalledBelow.Store(0)
		if sh.dead.Load() >= tb.vacuumEvery {
			tb.tryVacuumShard(sh)
		}
	}
}

// tryVacuumShard starts an asynchronous sweep of sh unless one is running.
func (tb *Table) tryVacuumShard(sh *shard) {
	if !sh.vacuuming.CompareAndSwap(false, true) {
		return
	}
	go func() {
		sh.sweepMu.Lock()
		tb.vacuumShard(sh)
		sh.sweepMu.Unlock()
		sh.vacuuming.Store(false)
	}()
}

// vacuumShard cuts reclaimable versions out of sh's chains in chunked latch
// holds. A version is reclaimable when a newer version of its key committed
// before the watermark: no current or future snapshot can reach past that
// newer version. The newest committed-before-horizon version itself is kept
// (it is what the oldest snapshot reads); tombstone markers are kept as chain
// markers, per the thesis note on reclaiming deleted rows.
//
// The sweep is proportional to garbage: it visits exactly the chains the
// write path queued on the shard's dirty list. A chain left with more than
// one version is re-queued — unless a concurrent writer already did — so the
// backlog a pinned watermark leaves behind is revisited by the next sweep,
// once, without rescanning the partition.
func (tb *Table) vacuumShard(sh *shard) (versions int) {
	h := tb.horizon()
	sh.dead.Swap(0)
	var residual int64

	sh.mu.Lock()
	work := sh.dirty
	sh.dirty, sh.spare = sh.spare[:0], nil
	sh.mu.Unlock()
	for i := 0; i < len(work); {
		sh.mu.Lock()
		for end := min(i+vacuumChunk, len(work)); i < end; i++ {
			c := work[i]
			work[i] = nil
			c.queued = false // off the stolen list; re-queued below if still dirty
			pruned, left := pruneChain(sh, c, h)
			versions += pruned
			residual += int64(left)
			if left > 0 {
				sh.queueDirtyLocked(c)
			}
		}
		sh.mu.Unlock()
	}
	sh.mu.Lock()
	if sh.spare == nil {
		sh.spare = work[:0]
	}
	sh.mu.Unlock()

	// Superseded versions the watermark still pins stay counted (and listed),
	// so a later trigger revisits them. An unproductive sweep records the
	// horizon it ran against: noteDead holds re-triggers until the watermark
	// passes it.
	sh.dead.Add(residual)
	if versions == 0 && residual > 0 {
		sh.stalledBelow.Store(h + 1)
	} else if versions > 0 {
		sh.stalledBelow.Store(0)
	}
	tb.vacuumRuns.Add(1)
	tb.vacuumKeyVisits.Add(uint64(len(work)))
	tb.versionsPruned.Add(uint64(versions))
	return versions
}

// pruneChain cuts everything older than the newest version committed before
// horizon — onto sh's free list, see recycle — returning how many versions
// were cut and how many remain beyond the chain head (the chain's residual:
// versions some active snapshot may still need, or uncommitted work — either
// way, potential future garbage that keeps the chain dirty). Caller holds
// sh.mu exclusively.
func pruneChain(sh *shard, c *chain, horizon core.TS) (pruned, residual int) {
	for v := c.first(); v != nil; v = v.Older {
		if ct := v.Creator.CommitTS(); ct != 0 && ct < horizon {
			// v is the newest pre-horizon committed version: every older
			// version is unreachable by any current or future snapshot.
			for o := v.Older; o != nil; {
				next := o.Older
				sh.recycle(o)
				o = next
				pruned++
			}
			v.Older = nil
			break
		}
	}
	for v := c.first(); v != nil; v = v.Older {
		residual++
	}
	if residual > 0 {
		residual--
	}
	return pruned, residual
}

// ---------------------------------------------------------------------------
// Stats

// ShardStats is a census of one partition.
type ShardStats struct {
	Keys  int
	Pages int
	// DeadVersions is the partition's current superseded-version estimate
	// (the vacuum trigger counter).
	DeadVersions int64
}

// TableStats is a census of a table's partitions and vacuum activity.
type TableStats struct {
	Shards []ShardStats
	Keys   int
	Pages  int

	// Cumulative since table creation.
	VacuumRuns     uint64
	VersionsPruned uint64
	// VacuumKeyVisits counts the chains vacuum sweeps have walked — the
	// garbage-proportionality metric: with dirty-list sweeps it tracks the
	// superseded-version count, not partition width × sweep count.
	VacuumKeyVisits uint64
}

// Stats returns a point-in-time census. Partitions are visited one at a
// time, so the totals are not an atomic cut; quiesce first for exact numbers.
func (tb *Table) Stats() TableStats {
	st := TableStats{
		Shards:          make([]ShardStats, len(tb.shards)),
		VacuumRuns:      tb.vacuumRuns.Load(),
		VersionsPruned:  tb.versionsPruned.Load(),
		VacuumKeyVisits: tb.vacuumKeyVisits.Load(),
	}
	for i, sh := range tb.shards {
		sh.mu.RLock()
		s := ShardStats{Keys: sh.tree.Len(), Pages: sh.tree.PageCount(), DeadVersions: sh.dead.Load()}
		sh.mu.RUnlock()
		st.Shards[i] = s
		st.Keys += s.Keys
		st.Pages += s.Pages
	}
	return st
}
