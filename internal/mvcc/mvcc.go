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
// transaction record alive, and the pruning a writer's retirement runs points
// the version it keeps at the shared core.Frozen cell, so a row that is never
// overwritten pins nothing once its writer retires — neither its creator's
// record nor its cell.
//
// # Rows
//
// A row is one 32-byte object, its chain: the newest version of the key,
// stored in place, with the older versions linked behind it. A version holds
// its value as a pointer and a 31-bit length, the tombstone flag its top bit,
// with the row's reader word in the padding behind the length, beside its
// creator's cell and the link to the next older version — four words, where a
// slice header and a bool made six.
// The B+tree entry (a 4-byte key head, a pointer to the key and the *chain, 20
// bytes: the tree is typed) points at the chain, and the tree's arena holds
// the only copy of the key the row keeps (the tree copies a key once, when it
// is first inserted, as its length and its bytes, and every key this package
// hands out — ScanItem.Key, Row.Key, a claim's successor — is a string over
// those bytes; value slices, by contrast, are retained as given, and handed
// back with their capacity cut to their length, so a reader's append copies).
// A first insert therefore allocates the chain and its key's bytes in the
// arena (and, now and then, the arena a chunk or the tree a page); a
// superseding write copies the old head out to a version and overwrites the
// head in place; Rollback and pruning do the reverse. All of it happens under
// the partition latch, and the invariant that makes overwriting in place safe
// is that no *version — least of all the head's address — outlives the latch
// hold that obtained it: reads copy the value and the creator out into their
// ReadResult and keep no pointer into the chain.
//
// Locate hands out a Row: the tree's key string, the chain and the partition,
// found by one descent. A Row is an address, not a reading — it says where
// the row's state is, nothing about what it was — and it stays valid for the
// life of the table, because neither thing it names ever changes identity: no
// key ever leaves a tree (the trees are insert-only, deletes are tombstone
// versions, and the arena bytes a key string points at are never written
// again), and a key's chain is installed once, by the structural insert
// (rowLocked), and never replaced — a page split moves entries (the key
// and chain pointers) between pages, not chains or keys.
// That is the whole safety argument for operating through a Row with no
// further descent: every such operation takes the partition latch and reads
// or writes the chain's state as it then is, exactly as the by-key operation
// would after walking to the same chain. It is what lets the engine name a
// row's lock by Row.Key (the paper's prototypes lock the record the descent
// found, not a copy of the search key), and decide, install and undo a write
// with one descent between them.
//
// A row's uncommitted head version is also its writer's write lock (package
// lock, "Implicit row locks"), and Claim is how every transaction installs a
// version: it decides a write and installs it in one exclusive latch hold —
// overwrite the writer's own head, send it to wait for a head whose writer
// still holds the row, refuse an Insert on a live head, or else ask the lock
// table (a Locker) for a blocking lock and the readers to mark, and then
// refuse a head committed after its snapshot (First-Committer-Wins) or
// install. A key the writer saw absent is inserted in the same hold, under
// every partition latch, once the lock table's probe of the gap it splits
// has found nothing that blocks it. No other writer's version can appear
// above a held head, so the head is the only version a write has to look at.
// A writer that excludes the row's other writers by locks of its own (the
// engine's page granularity) claims through a Locker that reports nothing.
// Table.Write installs with no decision at all, for recovery's replay.
//
// A row's head also carries its reader word (see chain): the SIREAD of one
// transaction that read the row, by a 31-bit slot (core.Manager.ReaderSlot),
// set in the shared latch hold that reads the row (ReadAs) and cleared at the
// reader's end (Pruner.Clear). A claim tells the Locker of it beside its
// probe; a read that finds the word taken locks in the table instead. Only a
// version retires a read: the word of the writer's own read goes in the claim
// that installs its version, or that ends the write as a Conflict, and
// nowhere else.
//
// Superseded versions are recycled. A version pruning cuts off a chain, or
// one a Rollback moves back into the head, is unreachable from the moment it
// is unlinked — the chain was the only thing pointing at it, and by the
// invariant above nobody holds a *version across latch holds — so it goes,
// zeroed (it must pin neither its value nor its creator's cell), onto its
// partition's free list, and the next superseding write of that partition
// copies the old head into it instead of allocating. The list is guarded by
// the partition latch held exclusively, which every one of those three
// already holds, so it needs no pool and no atomics; it holds at most
// freeMax versions — a backlog a released snapshot lets go of at once is
// more than the writes that follow need — and anything beyond that is left
// to the collector.
//
// # Partitioned store
//
// A Table is hash-partitioned into power-of-two shards, each an independent
// latch + B+tree, so point reads and writes on different partitions never
// touch the same latch (the storage-engine scaling move the paper delegates
// to its hosts, and the one PostgreSQL's SSI relies on — Ports & Grittner,
// VLDB 2012). Page numbers are per tree: every partition numbers its pages
// from 1, and the split hook (SetSplitHook) runs under the latch of the
// partition that split. The page-granularity mode, whose lock keys and write
// stamps are page numbers, runs one partition per table, so there a page
// number names one page of the table, as in the Berkeley DB prototype.
//
// Ordered scans are a k-way merge over the per-partition trees, performed in
// bounded lock-coupled rounds rather than under one table-long latch hold: a
// round takes every partition latch in shared mode (ascending index order,
// the same order structural inserts take them exclusively, see Claim), emits
// up to ScanChunk keys from the merge frontier, lets the caller install the
// emitted keys' SIREAD/gap protection while the latches are still held, and
// only then releases them; the next round re-acquires the latches and
// re-seeks the iterators of any partition whose tree changed in between
// (btree.Mods/IterAfter). Writers therefore wait at most one round — the
// scan-length writer stall the paper never requires (Cahill §3.5 only needs
// predicate protection atomic with the keys actually visited; PostgreSQL's
// SSI makes the same point, Ports & Grittner, VLDB 2012). The precise
// invariant argument is on ScanWith.
//
// # Pruning
//
// Version pruning is not done on the write path, nor by a background sweep:
// it is done when the superseding writer retires. The engine keeps a
// committed writer's rows (its write set, as Rows) in the transaction
// manager's retirement queue, and once the writer's commit precedes every
// active snapshot it hands them to a Pruner: under the row's partition latch,
// everything older than the writer's version goes — exactly the versions that
// commit made garbage — with one latch hold per partition for a whole batch
// of retiring writers. Reclamation is therefore synchronous with transaction
// ends, proportional to garbage, and keeps pace with any writer however it is
// scheduled. Vacuum walks every chain of the table against the Horizon
// instead; it is for tests and for whatever a caller wrote outside a retiring
// transaction.
package mvcc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"ssi/internal/btree"
	"ssi/internal/core"
)

// version is one version of a row. Versions form a singly linked list from
// newest to oldest. creator is the creating transaction's cell, never nil and
// never the record: its commit timestamp is 0 until (unless) the creator
// commits, its record is gone once every snapshot sees the version, and once
// pruning finds that so, it is core.Frozen instead (see pruneChain). The
// value is its first byte and its length (see Data), the length's top bit the
// tombstone flag; a nil value has a nil pointer, an empty one does not. Only
// the head's reader means anything (see chain).
type version struct {
	data    *byte
	size    uint32
	reader  uint32
	creator *core.Cell
	older   *version
}

// tombstoneBit is the bit of version.size that marks a tombstone.
const tombstoneBit = 1 << 31

// Data returns the version's value as it was written — nil for nil — but with
// its capacity equal to its length, so that an append by whoever reads it
// copies instead of writing into the writer's spare capacity, which another
// reader of the same version would see.
func (v *version) Data() []byte { return unsafe.Slice(v.data, v.size&^tombstoneBit) }

// tombstone reports whether the version is a delete's.
func (v *version) tombstone() bool { return v.size&tombstoneBit != 0 }

// setValue stores data and the tombstone flag in v. data is retained, not
// copied. The length takes 31 bits, the flag the last.
func (v *version) setValue(data []byte, tombstone bool) {
	if uint64(len(data)) >= tombstoneBit {
		panic("mvcc: a value of 2 GiB or more")
	}
	v.data, v.size = unsafe.SliceData(data), uint32(len(data))
	if tombstone {
		v.size |= tombstoneBit
	}
}

// chain is the version list for one key, and the whole of what a row costs
// beyond its tree entry and key: the head version is the chain itself (see "Rows" in
// the package comment). A chain with a nil creator holds no version — a key
// whose only write was rolled back. Guarded by the owning shard latch.
//
// The head's reader field is the row's reader word: the slot of the reader
// registered on the row, or 0. Under the latch held shared only ReadAs's
// atomics touch it; writes and clears hold it exclusively. Push and pop leave
// the word in the head.
type chain struct{ version }

// first returns the newest version, nil for an empty chain. The pointer is
// into the chain: it must not outlive the caller's latch hold.
func (c *chain) first() *version {
	if c.creator == nil {
		return nil
	}
	return &c.version
}

// push makes a version by w the head. The previous head, if any, is copied out
// behind it — into a version off sh's free list if it has one, which is what
// keeps a steady-state overwrite from allocating — without the reader word,
// which stays in the head. Caller holds sh.mu exclusively.
func (c *chain) push(sh *shard, w *core.Cell, data []byte, tombstone bool) {
	var older *version
	if c.creator != nil {
		older = sh.free
		if older != nil {
			sh.free, sh.nfree = older.older, sh.nfree-1
		} else {
			older = new(version)
		}
		*older = c.version
		older.reader = 0
	}
	c.version = version{reader: c.reader, creator: w, older: older}
	c.setValue(data, tombstone)
}

// pop undoes push: the next older version moves back into the head, beside
// the reader word, and the object it was copied out to is recycled. Caller
// holds sh.mu exclusively.
func (c *chain) pop(sh *shard) {
	next := version{reader: c.reader}
	if older := c.older; older != nil {
		next, next.reader = *older, c.reader
		sh.recycle(older)
	}
	c.version = next
}

// freeMax bounds a partition's free list.
const freeMax = 1024

// recycle puts v, which nothing references any more, on the free list — zeroed,
// so that it pins neither its value nor its creator's cell — unless the list is
// full, in which case v is left to the collector. Caller holds sh.mu
// exclusively.
func (sh *shard) recycle(v *version) {
	if sh.nfree >= freeMax {
		return
	}
	*v = version{older: sh.free}
	sh.free, sh.nfree = v, sh.nfree+1
}

// ReadResult reports the outcome of a snapshot read of one key.
type ReadResult struct {
	// Value is the visible data; meaningful only if Found. It aliases the
	// stored version, is read-only, and has capacity equal to its length.
	Value []byte
	// Found is true if a live (non-tombstone) version is visible.
	Found bool
	// VisibleCreator is the cell of the transaction that created the visible
	// version (live or tombstone), or nil if no version is visible. Used by
	// the history recorder to attribute wr-dependencies by id, which the
	// cell keeps after the record is gone — core.Frozen, whose id names no
	// transaction, once the version was frozen.
	VisibleCreator *core.Cell
	// NewerWriters lists the creators of versions newer than the one read
	// (committed after the snapshot, or still uncommitted by another
	// transaction). Each is the target of an rw-antidependency from the
	// reader (thesis Figure 3.4 lines 8-9).
	NewerWriters []*core.Txn
}

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
	// at (typically core.Manager.OldestActiveSnapshot); Vacuum cuts the
	// versions superseded before it.
	Horizon func() core.TS
}

// shard is one partition: an independently latched B+tree of version chains
// plus its free list and pruning census.
type shard struct {
	mu   latch
	tree *btree.TreeOf[*chain]

	// free is the partition's list of recycled versions, linked through older
	// and otherwise zero; nfree is its length, at most freeMax. Filled by
	// pruneChain and pop, drained by push, all under mu held exclusively (see
	// "Rows" in the package comment).
	free  *version
	nfree int64

	// pruned counts the versions pruneChain cut, visits the chains it walked;
	// written under mu held exclusively.
	pruned, visits uint64

	_ [64]byte // keep neighbouring shard latches off one cache line
}

// Table is one table: a hash-partitioned set of latch-protected B+trees of
// version chains.
type Table struct {
	name    string
	shards  []*shard
	mask    uint32
	horizon func() core.TS

	// scanPool recycles merge state (iterator and heap slices) across scans
	// of this table, so the merged path allocates nothing per scan.
	scanPool sync.Pool

	vacuumRuns atomic.Uint64
	scanRounds atomic.Uint64 // added once per scan, for the latch-release census
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
		name:    name,
		shards:  make([]*shard, n),
		mask:    uint32(n - 1),
		horizon: cfg.Horizon,
	}
	for i := range tb.shards {
		tb.shards[i] = &shard{tree: btree.NewOf[*chain](cfg.PageMaxKeys)}
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
func visible(v *version, t *core.Txn, snap core.TS) bool {
	if ct := v.creator.CommitTS(); ct != 0 {
		return ct < snap
	}
	return v.creator.Txn() == t
}

// Row is the address of a row that exists: the tree's own key string, the
// chain and the partition, as Locate found them. It is valid for the life of
// the table, however the tree splits and whatever is written in between (see
// "Rows" in the package comment), and says nothing about the row's state:
// every method takes the partition latch and works on the chain as it then is.
// The zero Row addresses nothing: it has no use but IsZero and Key, and as
// Claim's handle of a key its caller saw absent.
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
	stored, c, ok := sh.tree.Lookup(key)
	sh.mu.RUnlock()
	if !ok {
		return Row{}, false
	}
	return Row{key: stored, c: c, sh: sh}, true
}

// IsZero reports whether r is the zero Row, which Locate returns for a key
// that has no row.
func (r Row) IsZero() bool { return r.c == nil }

// Key returns the store's own copy of the row's key, which the caller may
// keep (to name the row's lock by, say); for the zero Row the empty string.
func (r Row) Key() string { return r.key }

// Read performs a snapshot read of the row for t at snapshot snap, also
// reporting the creators of any newer versions for conflict marking. Reading
// at the largest timestamp is the locking read of S2PL and of SELECT FOR
// UPDATE-style reads (thesis §4.4): the newest committed version, or t's own
// uncommitted one; another's uncommitted head is a newer writer. The engine
// reads so only under an explicit blocking lock it granted, and reads again
// after waiting for a writer whose version held the row; a write installs
// nothing above a lock it probed (Claim).
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
	c, ok := sh.tree.Get(key)
	if !ok {
		return ReadResult{}
	}
	return readChain(c, t, snap)
}

// ReadAs is Read registering t's SIREAD on the row by slot, in the same
// shared latch hold: a writer, deciding under the latch held exclusively,
// either came first, and the read reports it, or finds the word (Claim). It
// returns the read, the row (zero if the key has none), whether the read is
// covered — the word names slot (set: this call set it), or own is set and
// the head is t's version — and otherwise leaves the word alone.
func (tb *Table) ReadAs(t *core.Txn, snap core.TS, key []byte, slot uint32, own bool) (res ReadResult, row Row, covered, set bool) {
	sh := tb.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	stored, c, ok := sh.tree.Lookup(key)
	if !ok {
		return res, row, false, false
	}
	res, row = readChain(c, t, snap), Row{key: stored, c: c, sh: sh}
	switch w := atomic.LoadUint32(&c.reader); {
	case w == slot || own && c.creator != nil && c.creator.Txn() == t:
		return res, row, true, false
	case w == 0 && atomic.CompareAndSwapUint32(&c.reader, 0, slot):
		noteRegister()
		return res, row, true, true
	}
	return res, row, false, false
}

func readChain(c *chain, t *core.Txn, snap core.TS) ReadResult {
	var res ReadResult
	for v := c.first(); v != nil; v = v.older {
		noteVersion()
		if visible(v, t, snap) {
			res.VisibleCreator = v.creator
			if !v.tombstone() {
				res.Value = v.Data()
				res.Found = true
			}
			return res
		}
		// A creator without a record was retired: its commit precedes every
		// active snapshot, so its version is not newer than anyone's.
		if w := v.creator.Txn(); w != nil && w != t && !w.Aborted() {
			res.NewerWriters = append(res.NewerWriters, w)
		}
	}
	return res
}

// Rollback removes t's pending version of the row, restoring the chain to its
// pre-transaction state. Called for each row t wrote when it aborts; a row
// written twice is undone by the first call.
func (r Row) Rollback(t *core.Txn) {
	r.sh.mu.Lock()
	defer r.sh.mu.Unlock()
	if c := r.c; c.creator != nil && c.creator.Txn() == t {
		c.pop(r.sh)
	}
}

// Pruner cuts the versions retiring writers superseded, taking each
// partition's latch once for all the rows of a batch in it rather than once
// per row: a latch a scan round holds shared costs a writer the rest of the
// round, and a pinned snapshot's end retires its whole backlog at once. The
// zero value is ready to use.
type Pruner struct {
	n    int
	rows [pruneBatch]struct {
		Row
		ct   core.TS
		slot uint32 // a Clear's: the reader whose registration goes
	}
}

// pruneBatch is how many rows a Pruner holds before it prunes them.
const pruneBatch = 64

// Add queues r, written by a transaction committed at ct, for pruning:
// everything older than the newest version committed at or before ct — the
// writer's own, unless a later commit superseded it too — goes onto the
// partition's free list. The caller guarantees that ct precedes every active
// snapshot: the engine adds a writer's rows when it retires.
func (p *Pruner) Add(r Row, ct core.TS) { p.add(r, ct, 0) }

// Clear queues r's reader word for clearing if it still names slot, at the
// reader's end: once Flush has returned, no writer can find the reader there,
// and slot may name another.
func (p *Pruner) Clear(r Row, slot uint32) { p.add(r, 0, slot) }

func (p *Pruner) add(r Row, ct core.TS, slot uint32) {
	if p.n == pruneBatch {
		p.Flush()
	}
	p.rows[p.n].Row, p.rows[p.n].ct, p.rows[p.n].slot = r, ct, slot
	p.n++
}

// Flush prunes and clears the rows queued since the last Flush, one latch
// hold per partition among them.
func (p *Pruner) Flush() {
	rows := p.rows[:p.n]
	for i := range rows {
		sh := rows[i].sh
		if sh == nil {
			continue // pruned with an earlier row's partition
		}
		sh.mu.Lock()
		for j := i; j < len(rows); j++ {
			if r := &rows[j]; r.sh == sh {
				if r.slot == 0 {
					pruneChain(sh, r.c, r.ct+1)
				} else if r.c.reader == r.slot {
					r.c.reader = 0
					noteClear()
				}
				r.Row = Row{}
			}
		}
		sh.mu.Unlock()
	}
	p.n = 0
}

// Write installs t's version of key in one hold of the key's partition
// latch, inserting the key if it has no row, and returns the row with whether
// the write inserted it; a second write by t replaces its own version in
// place. key is only borrowed (an insert copies it into the tree); data is
// retained. It decides nothing and runs no gap protocol: it is recovery's
// replay, which no other transaction runs beside, and the mvcc layer probe
// of benchmark/layers.go. Every transaction's write goes through Claim.
// onInsert must be nil; the parameter stays for benchmark/layers.go.
func (tb *Table) Write(t *core.Txn, key []byte, data []byte, tombstone bool, onInsert func(stored, succ string, hasSucc bool)) (row Row, inserted bool) {
	if onInsert != nil {
		panic("mvcc: Table.Write has no insert hook; an insert that runs the gap protocol goes through Claim")
	}
	w := t.Cell() // t's first write allocates it, on t's own goroutine
	sh := tb.shardOf(key)
	sh.mu.Lock()
	row, inserted = rowLocked(sh, key)
	if row.c.creator == w {
		row.c.setValue(data, tombstone)
	} else {
		row.c.push(sh, w, data, tombstone)
	}
	sh.mu.Unlock()
	return row, inserted
}

// rowLocked returns the row of key, which lives in partition sh, inserting an
// empty one — copying key into the tree — if the key has none, and reports
// whether it did. The caller holds sh's latch exclusively.
func rowLocked(sh *shard, key []byte) (Row, bool) {
	stored, c, found := sh.tree.Lookup(key)
	if !found {
		c = &chain{}
		stored = sh.tree.Insert(key, c)
	}
	return Row{key: stored, c: c, sh: sh}, !found
}

// Locker is the lock table's side of a write's latch hold (Claim): what the
// row store asks it about, and tells it, while the latch is held. Its methods
// must not block.
type Locker interface {
	// Holds reports whether w, the writer of a row's head version, still
	// holds the row: an uncommitted version is its writer's write lock until
	// the writer lets go of its locks.
	Holds(w *core.Txn) bool
	// Probe looks at the lock table's entry for the row key stored of table
	// without creating one, and reports whether another transaction's lock
	// there blocks the write. If not, it keeps the readers the write must
	// mark.
	Probe(table, stored string) (blocked bool)
	// ProbeGap is Probe of the gap an insert would split: the one before
	// succ, the absent key's global successor, or past the table's last key
	// if !hasSucc. Only an unblocked insert goes ahead.
	ProbeGap(table, succ string, hasSucc bool) (blocked bool)
	// Inherit is told of a key the write inserted, the store's own copy,
	// and the key's global successor, if any: the locks on the gap the key
	// splits that follow its rows also cover the new key's gap and row.
	Inherit(table, stored, succ string, hasSucc bool)
	// Reader is told of the row's registered reader, by slot, in the hold
	// of a write the probe did not block: a reader to mark, or the writer
	// itself. It reports whether slot is the writer's own, a registration
	// the write's version then takes over (§3.7.3).
	Reader(slot uint32) (own bool)
}

// Intent is what a write asks Claim to install, and against which snapshot.
type Intent struct {
	// Snap is the writer's snapshot, or 0 for no First-Committer-Wins check:
	// a writer with no snapshot yet (the engine assigns a deferred one after
	// the write, above every commit the write could find), an S2PL writer,
	// which has none, or one that checked a coarser unit itself (a page).
	// With 0, no head is too new.
	Snap         core.TS
	Data         []byte
	Tombstone    bool
	MustNotExist bool // refuse (Exists) if a live version is visible
}

// Outcome is what a write's latch hold did.
type Outcome uint8

const (
	// Written: the new version is the row's head (or replaced the writer's
	// own head in place).
	Written Outcome = iota
	// Held: another transaction's version is the head and its writer still
	// holds the row (Claim.Holder); nothing was installed.
	Held
	// Blocked: the Locker's probe, of the row or of the gap an insert
	// would split, found a lock that blocks the write; nothing was
	// installed, nor, for a blocked gap, inserted (Row is zero).
	Blocked
	// Conflict: the head committed after the writer's snapshot
	// (First-Committer-Wins); the probe ran, nothing was installed.
	Conflict
	// Exists: Intent.MustNotExist, and the head is live; neither the probe
	// nor the reader word was touched, and nothing was installed.
	Exists
)

// Claim is what Table.Claim did.
type Claim struct {
	// Row is the row of the key, found or inserted — set whatever the
	// outcome but a blocked gap, so a retry needs no descent.
	Row     Row
	Outcome Outcome
	Holder  *core.Txn // the head's writer, for Held
}

// Claim decides and installs t's write of key in one exclusive latch hold
// (see "Rows" in the package comment). row is the handle of key's row, or the
// zero Row for a key the caller saw absent: then every partition latch is
// taken and the key looked up once. A key still absent has its global
// successor found, and l probes the gap before it (ProbeGap): blocked, the
// claim inserts nothing. Otherwise the key is inserted, and l told of it
// (Inherit) before any latch is dropped, so the engine moves the gap's locks
// onto the new key's gap and row atomically with the structure change — an
// atomicity that spans partitions, because the successor may live in any of
// them; and the successor cannot change between the probe and the insert.
// The key stays, with an empty chain, if nothing is installed.
//
// Under the latch, in order: t's own head is overwritten in place (or, for
// MustNotExist and a live head, Exists); a head whose writer l says still
// holds the row is Held; a head committed after in.Snap is noted, and
// otherwise MustNotExist and a live head is Exists, a refusal that leaves the
// lock table and the word alone; l probes the row's lock-table entry
// (Blocked), and is told of the reader the row's word names (Locker.Reader);
// then Conflict, or the new version is pushed. A version the write found
// newer than its snapshot thus stops it only after the probe and the word
// have given the readers to mark, as an exclusive lock acquired before the
// check would have.
func (tb *Table) Claim(t *core.Txn, key []byte, row Row, in Intent, l Locker) Claim {
	if !row.IsZero() {
		row.sh.mu.Lock()
		defer row.sh.mu.Unlock()
		return tb.claimLocked(t, row, in, l)
	}
	tb.lockAll()
	defer tb.unlockAll()
	sh := tb.shardOf(key)
	stored, c, found := sh.tree.Lookup(key)
	if !found {
		succ, hasSucc := tb.successorAllLocked(key)
		if l.ProbeGap(tb.name, succ, hasSucc) {
			return Claim{Outcome: Blocked}
		}
		c = &chain{}
		stored = sh.tree.Insert(key, c)
		l.Inherit(tb.name, stored, succ, hasSucc)
	}
	return tb.claimLocked(t, Row{key: stored, c: c, sh: sh}, in, l)
}

// claimLocked is Claim's decision on row; the caller holds its partition
// latch exclusively.
func (tb *Table) claimLocked(t *core.Txn, row Row, in Intent, l Locker) Claim {
	cl := Claim{Row: row}
	h := row.c.first()
	tooNew := false
	if h != nil {
		noteVersion()
		switch w := h.creator.Txn(); {
		case w == t:
			if in.MustNotExist && !h.tombstone() {
				cl.Outcome = Exists
			} else {
				h.setValue(in.Data, in.Tombstone)
			}
			return cl
		case w != nil && l.Holds(w):
			cl.Outcome, cl.Holder = Held, w
			return cl
		}
		// No other writer holds the head, so it is committed: a version
		// rolled back is popped before its writer lets go of the row.
		tooNew = in.Snap != 0 && h.creator.CommitTS() > in.Snap
		if !tooNew && in.MustNotExist && !h.tombstone() {
			cl.Outcome = Exists
			return cl
		}
	}
	if l.Probe(tb.name, row.key) {
		cl.Outcome = Blocked
		return cl
	}
	if s := row.c.reader; s != 0 && l.Reader(s) {
		row.c.reader = 0 // the writer's own registration (§3.7.3)
		noteClear()
	}
	if tooNew {
		cl.Outcome = Conflict
	} else {
		row.c.push(row.sh, t.Cell(), in.Data, in.Tombstone)
	}
	return cl
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

// ScanChunk bounds how many keys one lock-coupled scan round emits while
// holding the partition latches, so a long scan stalls a writer for at most
// one round rather than for its whole duration.
const ScanChunk = 256

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
//   - it emits up to ScanChunk keys in global key order;
//   - flush (if non-nil) is invoked while the round's latches are still
//     held, once per round; locking scans use it to lock the rows and gaps
//     (or pages) of the keys emitted since the previous flush. exhausted is
//     false until the final flush, which reports whether the iteration ran
//     off the end of the table (rather than being stopped by fn). A flush
//     that returns false ends the iteration after its round: a lock it
//     could not take without waiting protects nothing yet, so the caller
//     waits unlatched and scans again;
//   - the latches are released, writers drain, and the next round begins.
//
// Memory: the merge state is recycled per table, items are handed to fn by
// value, and nothing is kept once ScanWith returns, so the iteration itself
// allocates nothing per partition, round or item (only an item's
// NewerWriters, where newer versions exist). A caller that collects the
// items owns that buffer and its recycling — the engine's scan context does.
//
// The atomicity invariant this preserves — no insert can land between a key
// being emitted and its SIREAD (or Shared) protection being installed, at
// any point of a scan that runs to its end:
//
//  1. During a round every partition latch is held shared, and every insert
//     takes at least its key's partition latch exclusively (a structural
//     insert takes all of them), so no key anywhere in the table
//     becomes visible while a round is emitting.
//  2. Each round's emitted keys receive their locks in that round's flush,
//     before the latches drop. So whenever no latch is held, every emitted
//     key ≤ the frontier F (the last emitted key) is already protected.
//  3. An insert of key x between rounds therefore falls into two cases.
//     If x > F, the next round observes the tree change and re-seeks past F,
//     so the merge emits x itself and the reader marks the rw-conflict from
//     the invisible newer version (Figure 3.4) — or, holding Shared, waits
//     for x's writer. If x ≤ F, the inserter's gap probe (Claim) lands on
//     succ(x), the smallest key above x — and succ(x) ≤ F always (F itself
//     is a key greater than x), so succ(x) was emitted and its gap lock
//     installed by an earlier flush; the probe reports the scanner as a
//     reader and the conflict is marked from the writer side (Figure 3.7) —
//     or is blocked by the scanner's Shared lock, and the inserter waits.
//  4. Page granularity, which runs one tree per table, replaces gap locks
//     with leaf-page SIREAD coverage: every leaf that could receive an
//     in-range key is either the descent leaf of `from` (its path read by the
//     first round's flush, PathLocked), the leaf of an emitted key, or the
//     boundary leaf — all SIREAD-locked by their round's flush — and page
//     splits inherit that coverage onto the new page under the tree's latch.
//     The engine reads each page's committed writer stamps only after its
//     flush acquired the page lock, so a concurrent page writer is either
//     still a lock rival or already stamped.
func (tb *Table) ScanWith(t *core.Txn, snap core.TS, from []byte, fn func(ScanItem) bool, flush func(exhausted bool) bool) {
	m := tb.acquireMerge(from)
	defer tb.releaseMerge(m)
	for rounds := uint64(1); ; rounds++ {
		m.latchRound()
		stopped := false
		for n := 0; n < ScanChunk && m.valid(); n++ {
			it := m.top()
			item := ScanItem{Key: it.Key(), Page: it.Page(), ReadResult: readChain(it.Value(), t, snap)}
			m.last, m.emitted = item.Key, true
			if !fn(item) {
				stopped = true
				break
			}
			m.advance()
		}
		done := stopped || !m.valid()
		if flush != nil && !flush(done && !stopped) {
			done = true
		}
		m.unlatchRound()
		if done {
			tb.scanRounds.Add(rounds)
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
	iters   []btree.Iter[*chain]
	mods    []uint64 // btree.Mods observed when iters[i] was (re)positioned
	heap    []int    // partition indices, heap-ordered by current key
	started bool
}

func (tb *Table) acquireMerge(from []byte) *merge {
	m, _ := tb.scanPool.Get().(*merge)
	if m == nil {
		n := len(tb.shards)
		m = &merge{iters: make([]btree.Iter[*chain], n), mods: make([]uint64, n), heap: make([]int, 0, n)}
	}
	m.tb = tb
	m.from = from
	m.last, m.emitted = "", false
	m.started = false
	return m
}

func (tb *Table) releaseMerge(m *merge) {
	for i := range m.iters {
		m.iters[i] = btree.Iter[*chain]{} // drop node references held across reuse
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
func (m *merge) top() *btree.Iter[*chain] { return &m.iters[m.heap[0]] }

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

// OnPath runs fn under key's partition latch, held shared, handing it the
// root-to-leaf page path of key within its partition, appended to buf, the
// caller's recycled buffer, and, if structural is set, whether inserting key
// would split the leaf the path ends at. No split can cross the hold, so what
// fn decides from the path — the page-granularity engine takes its page locks
// in it — holds for the path the key then has. It returns the path; the call
// allocates nothing once buf has grown. It is the one method that reports
// page topology under a latch of its own.
func (tb *Table) OnPath(key []byte, buf []uint32, structural bool, fn func(path []uint32, split bool)) []uint32 {
	sh := tb.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	path, split := sh.tree.AppendPathPages(buf, key, structural)
	fn(path, split)
	return path
}

// PathLocked appends key's root-to-leaf page path to buf, as OnPath hands it
// over, for a caller that holds key's partition latch already — a ScanWith
// flush.
func (tb *Table) PathLocked(buf []uint32, key []byte) []uint32 {
	path, _ := tb.shardOf(key).tree.AppendPathPages(buf, key, false)
	return path
}

// successorAllLocked returns the smallest key strictly greater than key
// across all partitions; the caller holds every partition latch.
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

// vacuumChunk bounds how many keys one latch hold processes, so a walk never
// stalls readers or writers of the partition for long.
const vacuumChunk = 256

// VacuumStats reports what a Vacuum call reclaimed.
type VacuumStats struct {
	// VersionsPruned is the number of row versions cut out of chains.
	VersionsPruned int
}

// Vacuum walks every chain of every partition against the current Horizon,
// synchronously, and returns what it reclaimed. Safe to run concurrently with
// readers and writers: it takes each partition latch for vacuumChunk chains
// at a time, re-seeking past the last chain it pruned after each. Retiring
// writers prune their own rows (see "Pruning" in the package comment); this
// is the walk for everything else.
func (tb *Table) Vacuum() VacuumStats {
	h := tb.horizon()
	var st VacuumStats
	for _, sh := range tb.shards {
		sh.mu.Lock()
		for it := sh.tree.IterFrom(nil); it.Valid(); {
			last := ""
			for n := 0; n < vacuumChunk && it.Valid(); n++ {
				st.VersionsPruned += pruneChain(sh, it.Value(), h)
				last = it.Key()
				it.Next()
			}
			if it.Valid() {
				sh.mu.Unlock()
				sh.mu.Lock()
				it = sh.tree.IterAfter(last)
			}
		}
		sh.mu.Unlock()
	}
	tb.vacuumRuns.Add(1)
	return st
}

// pruneChain cuts everything older than the newest version committed before
// horizon — onto sh's free list, see recycle — and returns how many versions
// it cut. No current or future snapshot can reach past that version, which is
// kept (it is what the oldest snapshot reads), tombstone or not, per the
// thesis note on reclaiming deleted rows; and since its commit precedes every
// snapshot, it is frozen: it points at core.Frozen from now on, not at its
// creator's cell. Caller holds sh.mu exclusively.
func pruneChain(sh *shard, c *chain, horizon core.TS) (pruned int) {
	sh.visits++
	for v := c.first(); v != nil; v = v.older {
		if ct := v.creator.CommitTS(); ct != 0 && ct < horizon {
			v.creator = core.Frozen()
			for o := v.older; o != nil; {
				next := o.older
				sh.recycle(o)
				o = next
				pruned++
			}
			v.older = nil
			break
		}
	}
	sh.pruned += uint64(pruned)
	return pruned
}

// ---------------------------------------------------------------------------
// Stats

// ShardStats is a census of one partition.
type ShardStats struct {
	Keys     int
	Pages    int
	KeyBytes int // what the keys take in the tree's arena (btree.KeyBytes)
}

// TableStats is a census of a table's partitions and pruning activity.
type TableStats struct {
	Shards   []ShardStats
	Keys     int
	Pages    int
	KeyBytes int

	// Cumulative since table creation: Vacuum calls, the versions pruned by
	// retiring writers and by Vacuum, and the chains they walked — one per row
	// a retiring writer wrote, every chain per Vacuum.
	VacuumRuns      uint64
	VersionsPruned  uint64
	VacuumKeyVisits uint64
	// ScanRounds counts the lock-coupled rounds of every scan that returned:
	// the times a scan took and released the partition latches.
	ScanRounds uint64
}

// Stats returns a point-in-time census. Partitions are visited one at a
// time, so the totals are not an atomic cut; quiesce first for exact numbers.
func (tb *Table) Stats() TableStats {
	st := TableStats{Shards: make([]ShardStats, len(tb.shards)), VacuumRuns: tb.vacuumRuns.Load(), ScanRounds: tb.scanRounds.Load()}
	for i, sh := range tb.shards {
		sh.mu.RLock()
		s := ShardStats{Keys: sh.tree.Len(), Pages: sh.tree.PageCount(), KeyBytes: sh.tree.KeyBytes()}
		st.VersionsPruned += sh.pruned
		st.VacuumKeyVisits += sh.visits
		sh.mu.RUnlock()
		st.Shards[i] = s
		st.Keys += s.Keys
		st.Pages += s.Pages
		st.KeyBytes += s.KeyBytes
	}
	return st
}
