package ssidb

import (
	"slices"
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
// Page locks are planned from a tree the lock does not yet protect, so every
// acquisition here is acquire-and-revalidate; and every stamp is read only
// after the page's lock is held, so that a concurrent page writer either
// still holds its exclusive page lock (and surfaces as an acquisition rival)
// or has committed — and therefore stamped the page — before the stamps are
// read. Reading stamps first would miss a writer that locked the page before
// the acquisition and committed before it.
type pageTargets struct {
	db       *DB
	cleanups atomic.Uint64
}

// newPageTargets also settles the one store default that granularity decides.
// Page mode models Berkeley DB's single B+tree per table, and what it is used
// to observe — false sharing between keys on one leaf, split-induced root
// conflicts, the "~100 leaf pages per table" of Figures 6.1-6.7 — changes
// when keys are hashed across GOMAXPROCS trees, so an unset TableShards means
// one partition here: conflict behaviour must not depend on the host's core
// count. (Row mode's conflicts are key-based and host-independent whatever
// the partitioning, so it keeps the GOMAXPROCS-scaled default.) Explicit
// values are honoured.
func newPageTargets(db *DB) *pageTargets {
	if db.opts.TableShards == 0 {
		db.opts.TableShards = 1
	}
	return &pageTargets{db: db}
}

func (*pageTargets) lockRead(tx *Txn, tb *table, key []byte, _ mvcc.Row, mode lock.Mode, snap core.TS) error {
	_, leaf, err := lockPagePath(tx, tb, key, mode, mode, false)
	if err != nil || mode != lock.SIRead {
		return err
	}
	return tx.markAsReader(tb.data.PageNewerWriters(leaf, snap))
}

func (*pageTargets) lockWrite(tx *Txn, tb *table, key []byte, _ mvcc.Row, structural bool) ([]*core.Txn, core.TS, error) {
	readers, leaf, err := lockPagePath(tx, tb, key, tx.readMode(), lock.Exclusive, structural)
	if err != nil {
		return nil, 0, err
	}
	return readers, tb.data.PageNewestCommitTS(leaf), nil
}

func (*pageTargets) install(tx *Txn, tb *table, key []byte, row mvcc.Row, val []byte, tombstone bool) (mvcc.Row, error) {
	if row.IsZero() {
		row, _ = tb.data.Write(tx.t, key, val, tombstone, nil)
	} else {
		row.Write(tx.t, val, tombstone)
	}
	tb.data.AddPageWriter(tb.data.LeafPage(key), tx.t)
	return row, nil
}

// lockPagePath plans and acquires the page locks along key's root-to-leaf
// path, as Berkeley DB does while descending — the source of the paper's
// split-induced false positives: interior pages in the interior mode (the
// isolation's read mode), the leaf in leafMode, and the whole path EXCLUSIVE
// when the write will split the leaf. The plan is re-verified after
// acquisition because a concurrent split can move the key; extra locks
// acquired under a stale plan are simply kept. It returns the SIREAD holders
// found on the exclusive acquisitions, and the leaf.
func lockPagePath(tx *Txn, tb *table, key []byte, interior, leafMode lock.Mode, structural bool) (readers []*core.Txn, leaf uint32, err error) {
	readers = emptied(tx.s.rivals)
	for {
		path := tb.data.PathPages(key)
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
			tx.s.rivals = readers
			if err != nil {
				return nil, 0, err
			}
			if split && !isLeaf {
				// The split will rewrite this interior page: stamp it so
				// page-level FCW and newer-version checks see the structural
				// write (the root-page conflicts of §6.1.5).
				tb.data.AddPageWriter(pg, tx.t)
			}
		}
		if slices.Equal(path, tb.data.PathPages(key)) && split == (structural && tb.data.InsertWillSplit(key)) {
			return readers, path[len(path)-1], nil
		}
	}
}

// lockScanStart locks the descent paths to `from` (every partition's, since
// a merged scan descends them all), as Berkeley DB read-locks them: the lock
// set is complete only once a recomputed path shows the pages just locked,
// so a split racing the descent cannot move keys onto a page outside the
// scan's coverage — once a page is held, later splits inherit the coverage
// onto the new page (SIREAD) or wait for it (Shared).
func (*pageTargets) lockScanStart(tx *Txn, sc *scanCtx, tb *table, from []byte, mode lock.Mode, snap core.TS) error {
	for {
		sc.pages = tb.data.AppendScanPathPages(sc.pages[:0], from)
		path := sc.pages
		for _, pg := range path {
			var err error
			sc.writers, err = tx.db.locks.AcquireInto(tx.t, lock.PageKey(tb.name, pg), mode, sc.writers)
			if err != nil {
				return err
			}
		}
		// The recomputed paths land behind the first descent's in the same
		// buffer.
		sc.pages = tb.data.AppendScanPathPages(sc.pages, from)
		if !slices.Equal(path, sc.pages[len(path):]) {
			continue
		}
		if mode == lock.SIRead {
			for _, pg := range path {
				sc.writers = append(sc.writers, tb.data.PageNewerWriters(pg, snap)...)
			}
		}
		err := tx.markAsReader(sc.writers)
		sc.writers = emptied(sc.writers)
		return err
	}
}

// scanKeys covers every leaf that could receive an in-range key: the leaves
// of the visited keys and of the boundary (lockScanStart holds the first).
func (*pageTargets) scanKeys(keys []lock.Key, tb *table, items []mvcc.ScanItem, end scanEnd) []lock.Key {
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

func (*pageTargets) scanNewerWriters(writers []*core.Txn, tb *table, snap core.TS, _ []mvcc.ScanItem, keys []lock.Key) []*core.Txn {
	for _, k := range keys {
		writers = append(writers, tb.data.PageNewerWriters(k.Page(), snap)...)
	}
	return writers
}

// tableCreated installs the split hook: page splits move rows to a new page,
// and readers' SIREAD coverage must follow the moved rows (run under the
// partition latch, atomic with the split; the page write-stamp watermark
// inheritance is built into the store).
func (p *pageTargets) tableCreated(tb *table) {
	tb.data.SetSplitHook(func(oldPage, newPage uint32) {
		p.db.locks.InheritSIRead(lock.PageKey(tb.name, oldPage), lock.PageKey(tb.name, newPage))
	})
}

// afterCleanup periodically prunes page write-stamps: retiring suspended
// transactions is when the horizon they were kept for has moved.
func (p *pageTargets) afterCleanup() {
	if p.cleanups.Add(1)%64 != 0 {
		return
	}
	h := p.db.mgr.OldestActiveSnapshot()
	for _, tb := range *p.db.tables.Load() {
		tb.data.PruneStamps(h)
	}
}
