package ssidb

import (
	"slices"
	"sync"
	"sync/atomic"

	"ssi/internal/core"
	"ssi/internal/lock"
	"ssi/internal/mvcc"
)

// pageTargets is the page-granularity lockTargets, the Berkeley DB
// prototype's (thesis §4.2-§4.3): every operation locks the B+tree pages it
// descends through, the page is the unit of versioning — First-Committer-Wins
// and a reader's "newer versions" both come from the leaf's write stamps —
// and there are no gap locks, because an insert into a scanned range has to
// write a page the scanner read. Its coarseness is the source of the false
// positives analysed in §6.1.5.
//
// The page versions are this strategy's own: each table's pageStamps, below,
// made by tableCreated, inherited across splits by the split hook it installs
// and folded as their writers retire. The row store underneath keeps
// rows only, and lends this file its page topology (LeafPage,
// AppendPathPages, InsertWillSplit) and the split hook. A page-granularity
// table is one B+tree, as in Berkeley DB (DB.TableShards), so a page number
// names one page of the table.
//
// Page locks are planned from a tree the lock does not yet protect, so every
// acquisition here is acquire-and-revalidate; and every stamp is read only
// after the page's lock is held, so that a concurrent page writer either
// still holds its exclusive page lock (and surfaces as an acquisition rival)
// or has committed — and therefore stamped the page — before the stamps are
// read. Reading stamps first would miss a writer that locked the page before
// the acquisition and committed before it.
type pageTargets struct {
	db *DB
}

// read locks key's descent path in mode, then reads.
func (*pageTargets) read(tx *Txn, tb *table, key []byte, mode lock.Mode, snap core.TS) (mvcc.ReadResult, error) {
	row, _ := tb.data.Locate(key)
	_, leaf, err := lockPagePath(tx, tb, key, mode, mode, false)
	if err == nil && mode == lock.SIRead {
		err = tx.markAsReader(tb.stamps.newerWriters(nil, leaf, snap))
	}
	if err != nil {
		return mvcc.ReadResult{}, err
	}
	return tb.read(tx.t, snap, key, row), nil
}

// lockForUpdate locks key's leaf exclusively, marking no reader. At SSI it
// stamps the leaf as a write does: a version of the page in place of the
// SIREAD the grant dropped (§3.7.3); other levels hold no SIREAD there.
func (*pageTargets) lockForUpdate(tx *Txn, tb *table, key []byte, _ mvcc.Row) (core.TS, error) {
	_, leaf, err := lockPagePath(tx, tb, key, tx.readMode(), lock.Exclusive, false)
	if err != nil {
		return 0, err
	}
	if tx.Isolation().TracksConflicts() {
		tb.stamps.addWriter(leaf, tx.t)
	}
	return tb.stamps.newestCommitTS(leaf), nil
}

// write holds the page locks before it installs anything — the leaf
// exclusively, and the whole path if a structural write will split it: every
// other writer of the row waits on the leaf, and the locks found the readers
// to mark and the page's First-Committer-Wins stamp, which covers the row's.
// So its claim asks the lock table nothing (pageLocker) and checks no
// snapshot: it installs, or refuses an Insert on a live head. It stamps the
// leaf, on a refusal at SSI only, as lockForUpdate does.
func (*pageTargets) write(tx *Txn, tb *table, key []byte, row mvcc.Row, val []byte, tombstone, mustNotExist bool) error {
	readers, leaf, err := lockPagePath(tx, tb, key, tx.readMode(), lock.Exclusive, tombstone || mustNotExist || row.IsZero())
	if err != nil {
		return err
	}
	// Figure 3.5 once the locks are held: the snapshot (deferred), the
	// readers marked, then First-Committer-Wins on the leaf.
	newest := tb.stamps.newestCommitTS(leaf)
	snap := tx.readPoint()
	if err := tx.markAsWriter(readers); err != nil {
		return err
	}
	if newest > snap {
		return ErrWriteConflict
	}
	c := tb.data.Claim(tx.t, key, row, mvcc.Intent{Data: val, Tombstone: tombstone, MustNotExist: mustNotExist}, pageLocker{})
	if c.Outcome != mvcc.Exists || tx.Isolation().TracksConflicts() {
		tb.stamps.addWriter(tb.data.LeafPage(key), tx.t)
	}
	if c.Outcome == mvcc.Exists {
		return ErrKeyExists
	}
	tx.writes = append(tx.writes, c.Row)
	return nil
}

// pageLocker is the mvcc.Locker of a page write's claim: no head holds its row
// against a writer that holds the row's leaf, no probe is needed, there are
// no gap locks to move, and no reader registers on a row.
type pageLocker struct{}

func (pageLocker) Holds(*core.Txn) bool                 { return false }
func (pageLocker) Probe(string, string) bool            { return false }
func (pageLocker) Inherit(string, string, string, bool) {}
func (pageLocker) Reader(uint32) bool                   { return false }

// lockPagePath plans and acquires the page locks along key's root-to-leaf
// path, as Berkeley DB does while descending — the source of the paper's
// split-induced false positives: interior pages in the interior mode (the
// isolation's read mode), the leaf in leafMode, and the whole path EXCLUSIVE
// when the write will split the leaf. The plan is re-verified after
// acquisition because a concurrent split can move the key; extra locks
// acquired under a stale plan are simply kept. Plan and re-check share the
// transaction's path buffer, the recomputed path landing behind the plan. It
// returns the SIREAD holders found on the exclusive acquisitions, and the leaf.
func lockPagePath(tx *Txn, tb *table, key []byte, interior, leafMode lock.Mode, structural bool) (readers []*core.Txn, leaf uint32, err error) {
	readers = emptied(tx.rivals)
	for {
		tx.pages = tb.data.AppendPathPages(tx.pages[:0], key)
		path := tx.pages
		split := structural && tb.data.InsertWillSplit(key)
		for i, pg := range path {
			isLeaf := i == len(path)-1
			mode := interior
			switch {
			case split:
				mode = lock.Exclusive
			case isLeaf:
				mode = leafMode
			}
			if mode == noLock {
				continue
			}
			held := len(readers)
			readers, err = tx.db.locks.AcquireInto(tx.t, lock.PageKey(tb.name, pg), mode, readers)
			if err == nil && mode == lock.SIRead {
				// These rivals are exclusive holders (Figure 3.4): marked
				// now, not handed to the caller.
				err = tx.markAsReader(readers[held:])
				clear(readers[held:])
				readers = readers[:held]
			}
			tx.rivals = readers
			if err != nil {
				return nil, 0, err
			}
			if split && !isLeaf {
				// The split will rewrite this interior page: stamp it so
				// page-level FCW and newer-version checks see the structural
				// write (the root-page conflicts of §6.1.5).
				tb.stamps.addWriter(pg, tx.t)
			}
		}
		tx.pages = tb.data.AppendPathPages(tx.pages, key)
		if slices.Equal(path, tx.pages[len(path):]) && split == (structural && tb.data.InsertWillSplit(key)) {
			return readers, path[len(path)-1], nil
		}
	}
}

// lockScanStart locks the descent path to `from`, as Berkeley DB read-locks
// it: the lock set is complete only once a recomputed path shows the pages
// just locked, so a split racing the descent cannot move keys onto a page
// outside the scan's coverage — once a page is held, later splits inherit the
// coverage onto the new page (SIREAD) or wait for it (Shared).
func (*pageTargets) lockScanStart(tx *Txn, sc *scanCtx, tb *table, from []byte, mode lock.Mode, snap core.TS) error {
	for {
		sc.pages = tb.data.AppendPathPages(sc.pages[:0], from)
		path := sc.pages
		for _, pg := range path {
			var err error
			sc.writers, err = tx.db.locks.AcquireInto(tx.t, lock.PageKey(tb.name, pg), mode, sc.writers)
			if err != nil {
				return err
			}
		}
		// The recomputed path lands behind the first descent's in the same
		// buffer.
		sc.pages = tb.data.AppendPathPages(sc.pages, from)
		if !slices.Equal(path, sc.pages[len(path):]) {
			continue
		}
		if mode == lock.SIRead {
			for _, pg := range path {
				sc.writers = tb.stamps.newerWriters(sc.writers, pg, snap)
			}
		}
		err := tx.markAsReader(sc.writers)
		sc.writers = emptied(sc.writers)
		return err
	}
}

// scanKeys covers every leaf that could receive an in-range key: the leaves
// of the visited keys and of the boundary (lockScanStart holds the first).
func (*pageTargets) scanKeys(keys []lock.Key, tb *table, items []mvcc.ScanItem, end scanEnd, _ *core.Cell) []lock.Key {
	first := len(keys)
	add := func(pg uint32) {
		for i := len(keys) - 1; i >= first; i-- {
			if keys[i].Page() == pg {
				return
			}
		}
		keys = append(keys, lock.PageKey(tb.name, pg))
	}
	for i := range items {
		add(items[i].Page)
	}
	if end.reached {
		add(end.page)
	}
	return keys
}

// awaitHeads has nothing to wait for: every page writer holds its leaf's
// Exclusive lock, which the scan's Shared lock waited for.
func (*pageTargets) awaitHeads(*Txn, *table, []mvcc.ScanItem) (bool, error) { return false, nil }

func (*pageTargets) scanNewerWriters(writers []*core.Txn, tb *table, snap core.TS, _ []mvcc.ScanItem, keys []lock.Key) []*core.Txn {
	for _, k := range keys {
		writers = tb.stamps.newerWriters(writers, k.Page(), snap)
	}
	return writers
}

// tableCreated gives the table its write-stamp registry and installs the
// split hook: when a split moves rows to a new page, the page's write history
// (its First-Committer-Wins floor) and its readers' SIREAD coverage must
// follow them, both atomically with the split — the hook runs under the latch
// of the partition that split.
func (p *pageTargets) tableCreated(tb *table) {
	tb.stamps = newPageStamps()
	tb.data.SetSplitHook(func(oldPage, newPage uint32) {
		tb.stamps.inheritOnSplit(oldPage, newPage)
		p.db.locks.InheritSIRead(lock.PageKey(tb.name, oldPage), lock.PageKey(tb.name, newPage))
	})
}

// pageStamps records which transactions wrote each page of one table. It is
// the page-granularity analogue of version chains: the Berkeley DB prototype
// versions whole pages, so "a newer version of the page exists" means "some
// transaction that committed after my snapshot wrote this page" — including
// structural writes from splits, which is exactly how the paper's prototype
// manufactures its root-page false positives (§6.1.5).
//
// A stamp points at its writer's core.Cell, never the record, for the reason
// versions do (see package mvcc): the record is cut loose once every snapshot
// sees the write, and a stamp must not keep it alive. That cut, made when the
// writer retires, is also what expires the stamp: every walk of a page's
// writers first folds the severed cells into the page's floor (foldLocked),
// so stamps have no pruning schedule of their own.
type pageStamps struct {
	mu     sync.Mutex
	byPage map[uint32]*pageHist
	pruned atomic.Uint64 // writer entries folded or dropped, for TableStats
}

type pageHist struct {
	writers   []*core.Cell // unsevered at the last fold
	maxCommit core.TS      // newest commit among the writers folded away
}

func newPageStamps() *pageStamps {
	return &pageStamps{byPage: make(map[uint32]*pageHist)}
}

// inheritOnSplit copies the write history of oldPage onto newPage. When a
// split moves rows to a new page, the moved rows' page-level
// First-Committer-Wins watermark must follow them, or a stale-snapshot
// writer of a moved row would slip past the conflict check.
func (ps *pageStamps) inheritOnSplit(oldPage, newPage uint32) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	src := ps.byPage[oldPage]
	if src == nil {
		return
	}
	dst := ps.byPage[newPage]
	if dst == nil {
		dst = &pageHist{}
		ps.byPage[newPage] = dst
	}
	dst.maxCommit = max(dst.maxCommit, src.maxCommit)
	for _, w := range src.writers {
		if !slices.Contains(dst.writers, w) {
			dst.writers = append(dst.writers, w)
		}
	}
}

// addWriter records that t wrote page (holding its exclusive page lock).
func (ps *pageStamps) addWriter(page uint32, t *core.Txn) {
	c := t.Cell() // allocated on t's own goroutine if this is its first write
	ps.mu.Lock()
	defer ps.mu.Unlock()
	h := ps.byPage[page]
	if h == nil {
		h = &pageHist{}
		ps.byPage[page] = h
	}
	ps.foldLocked(h)
	if !slices.Contains(h.writers, c) {
		h.writers = append(h.writers, c)
	}
}

// foldLocked folds the writers of h whose cells are severed into its
// maxCommit floor and drops its aborted ones, reporting how many entries
// went. A writer's retirement severs its cell, and it retires only once its
// commit precedes every active snapshot, and so every later one: it is no
// reader's newer writer again, and the floor keeps its commit for
// First-Committer-Wins. An aborted writer's cell is never severed.
func (ps *pageStamps) foldLocked(h *pageHist) (removed int) {
	kept := h.writers[:0]
	for _, w := range h.writers {
		if t := w.Txn(); t == nil {
			h.maxCommit = max(h.maxCommit, w.CommitTS())
		} else if !t.Aborted() {
			kept = append(kept, w)
		}
	}
	removed = len(h.writers) - len(kept)
	if removed > 0 {
		clear(h.writers[len(kept):])
		ps.pruned.Add(uint64(removed))
	}
	h.writers = kept
	return removed
}

// newestCommitTS returns the latest commit timestamp among writers of page,
// the page-granularity First-Committer-Wins input.
func (ps *pageStamps) newestCommitTS(page uint32) core.TS {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	h := ps.byPage[page]
	if h == nil {
		return 0
	}
	ps.foldLocked(h)
	newest := h.maxCommit
	for _, w := range h.writers {
		newest = max(newest, w.CommitTS())
	}
	return newest
}

// newerWriters appends to out the writers of page that committed after snap
// (the page-granularity "newer version" creators of thesis Figure 3.4).
func (ps *pageStamps) newerWriters(out []*core.Txn, page uint32, snap core.TS) []*core.Txn {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	h := ps.byPage[page]
	if h == nil {
		return out
	}
	ps.foldLocked(h)
	for _, w := range h.writers {
		if ct := w.CommitTS(); ct != 0 && ct >= snap {
			// The record is still there: a writer retires only once its
			// commit precedes every active snapshot, snap included.
			if t := w.Txn(); t != nil {
				out = append(out, t)
			}
		}
	}
	return out
}

// prune folds every page's writers (DB.Vacuum) and forgets the pages left
// with no stamp, reporting how many writer entries went.
func (ps *pageStamps) prune() (removed int) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for page, h := range ps.byPage {
		removed += ps.foldLocked(h)
		if len(h.writers) == 0 && h.maxCommit == 0 {
			delete(ps.byPage, page)
		}
	}
	return removed
}
