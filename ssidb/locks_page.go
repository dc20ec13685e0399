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
// and dropped as their writers retire. The row store underneath keeps
// rows only, and lends this file its page topology (OnPath, PathLocked) and
// the split hook. A page-granularity table is one B+tree, as in Berkeley DB
// (DB.TableShards), so a page number names one page of the table.
//
// The latch rule: every page lock is taken in the tree-latch hold that reads
// the path — a point operation's in OnPath (lockPagePath), a scan's in its
// round's flush — with TryAcquireInto, which never waits; one that would wait
// is waited for unlatched, and the operation reads the path again. No split
// can cross the hold, since a split runs under the latch held exclusively, so
// the locks taken are the path's and there is nothing to re-plan. Every stamp
// is read only after the page's lock is held, so that a concurrent page
// writer either still holds its exclusive page lock (and surfaces as an
// acquisition rival) or has committed — and therefore stamped the page —
// before the stamps are read. Reading stamps first would miss a writer that
// locked the page before the acquisition and committed before it.
type pageTargets struct {
	db *DB
}

// read locks key's descent path in mode, then reads by key. A locked read
// locks the interior pages in the level's read mode, stamps the leaf at SSI
// as a write does, for the SIREAD its Exclusive lock stands for (§3.7.3),
// and checks the leaf's stamps against the snapshot it takes then.
func (*pageTargets) read(tx *Txn, tb *table, key []byte, mode lock.Mode, snap core.TS) (mvcc.ReadResult, error) {
	interior := mode
	if mode == lock.Exclusive {
		interior = tx.readMode()
	}
	_, leaf, err := lockPagePath(tx, tb, key, interior, mode, false)
	if err == nil && mode == lock.SIRead {
		err = tx.markAsReader(tb.stamps.newerWriters(nil, leaf, snap))
	} else if err == nil && mode == lock.Exclusive {
		if tx.Isolation().TracksConflicts() {
			tb.stamps.addWriter(leaf, tx.t)
		}
		if snap = tx.readPoint(); tb.stamps.newestCommitTS(leaf) > snap {
			err = ErrWriteConflict
		}
	}
	if err != nil {
		return mvcc.ReadResult{}, err
	}
	return tb.data.Read(tx.t, snap, key), nil
}

// write holds the page locks before it installs anything — the leaf
// exclusively, and the whole path if a structural write will split it: every
// other writer of the row waits on the leaf, and the locks found the readers
// to mark and the page's First-Committer-Wins stamp, which covers the row's.
// So its claim asks the lock table nothing (pageLocker) and checks no
// snapshot: it installs, or refuses an Insert on a live head. It stamps the
// leaf it locked, on a refusal at SSI only, as a locked read does: no other
// writer can split that leaf, and a split of its own carries the stamp the
// path took before the insert onto the new page.
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
		tb.stamps.addWriter(leaf, tx.t)
	}
	if c.Outcome == mvcc.Exists {
		return ErrKeyExists
	}
	tx.writes = append(tx.writes, c.Row)
	return nil
}

// pageLocker is the mvcc.Locker of a page write's claim: no head holds its row
// against a writer that holds the row's leaf — a row's writer holds its leaf
// until it commits or rolls back, across splits too (tableCreated) — no probe
// is needed, there are no gap locks to move, and no reader registers on a row.
type pageLocker struct{}

func (pageLocker) Holds(*core.Txn) bool                 { return false }
func (pageLocker) Probe(string, string) bool            { return false }
func (pageLocker) ProbeGap(string, string, bool) bool   { return false }
func (pageLocker) Inherit(string, string, string, bool) {}
func (pageLocker) Reader(uint32) bool                   { return false }

// lockPagePath takes the page locks along key's root-to-leaf path, as
// Berkeley DB does while descending — the source of the paper's
// split-induced false positives: interior pages in the interior mode (the
// isolation's read mode), the leaf in leafMode, and the whole path EXCLUSIVE
// when a structural write will split the leaf. Each attempt is one pass in
// path order in one OnPath hold; at the first lock that would wait it waits
// for it unlatched and makes another pass, which finds the locks it took
// already held. Rivals are marked after the hold: the EXCLUSIVE holders its
// SIREAD grants found here, the SIREAD holders its EXCLUSIVE grants found
// returned, for the caller to mark once it has its snapshot. A split path is
// stamped before the insert that splits it (the root-page conflicts of
// §6.1.5), so the split hook hands the leaf's stamp, which stands for the
// read the EXCLUSIVE grant dropped (§3.7.3), to the new page with the rows it
// moves. It returns the readers and the leaf; tx.pages holds the path.
func lockPagePath(tx *Txn, tb *table, key []byte, interior, leafMode lock.Mode, structural bool) (readers []*core.Txn, leaf uint32, err error) {
	for {
		rivals, writers := emptied(tx.rivals), 0 // rivals[:writers]: found by SIREAD grants
		var refused lock.Key
		var refusedMode lock.Mode
		var split bool
		tx.pages = tb.data.OnPath(key, tx.pages[:0], structural, func(path []uint32, willSplit bool) {
			split = willSplit
			for i, pg := range path {
				mode := interior
				switch {
				case split:
					mode = lock.Exclusive
				case i == len(path)-1:
					mode = leafMode
				}
				if mode == noLock {
					continue
				}
				k := lock.PageKey(tb.name, pg)
				var ok bool
				if rivals, ok = tx.db.locks.TryAcquireInto(tx.t, k, mode, rivals); !ok {
					refused, refusedMode = k, mode
					return
				}
				if mode == lock.SIRead {
					writers = len(rivals) // SIREAD grants precede EXCLUSIVE ones on a path
				}
			}
		})
		tx.rivals = rivals
		if refusedMode != noLock {
			if err := tx.wait(refused, refusedMode); err != nil {
				return nil, 0, err
			}
			continue
		}
		if err := tx.markAsReader(rivals[:writers]); err != nil {
			return nil, 0, err
		}
		if split {
			for _, pg := range tx.pages {
				tb.stamps.addWriter(pg, tx.t)
			}
		}
		return rivals[writers:], tx.pages[len(tx.pages)-1], nil
	}
}

// scanKeys covers every leaf that could receive an in-range key: the leaves
// of the visited keys and of the boundary, and, in a collection's first round
// (from not nil), the descent path to from, as Berkeley DB read-locks it —
// read in the round's latch hold, so no split moves a key off a page before
// the flush locks it, and later splits hand the coverage to the new page
// (Inherit) or wait for it (Shared).
func (*pageTargets) scanKeys(keys []lock.Key, tb *table, from []byte, items []mvcc.ScanItem, end scanEnd, _ *core.Cell) []lock.Key {
	first := len(keys)
	add := func(pg uint32) {
		for i := len(keys) - 1; i >= first; i-- {
			if keys[i].Page() == pg {
				return
			}
		}
		keys = append(keys, lock.PageKey(tb.name, pg))
	}
	if from != nil {
		var buf [16]uint32
		for _, pg := range tb.data.PathLocked(buf[:0], from) {
			add(pg)
		}
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
		writers = tb.stamps.newerWriters(writers, k.Page(), snap)
	}
	return writers
}

// tableCreated gives the table its write-stamp registry and installs the
// split hook: when a split moves rows to a new page, the page's write stamps,
// its readers' SIREAD coverage and its writer's Exclusive lock must follow
// them, all atomically with the split — the hook runs under the latch of the
// partition that split. The writer is the splitter, which holds the whole
// path Exclusive and stamped it (lockPagePath), so it holds and has written
// every new page as it holds and has written the page the rows left.
func (p *pageTargets) tableCreated(tb *table) {
	tb.stamps = newPageStamps()
	tb.data.SetSplitHook(func(oldPage, newPage uint32) {
		tb.stamps.inheritOnSplit(oldPage, newPage)
		p.db.locks.Inherit(lock.PageKey(tb.name, oldPage), lock.PageKey(tb.name, newPage))
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
// writer retires, is also what expires the stamp: the writer's commit then
// precedes every active and future snapshot, so it is no reader's newer
// writer and fails no First-Committer-Wins check again, and every walk of a
// page's writers first drops the severed cells (foldLocked), so stamps have
// no pruning schedule of their own and keep no floor.
type pageStamps struct {
	mu     sync.Mutex
	byPage map[uint32][]*core.Cell // each page's writers, unsevered at its last fold
	pruned atomic.Uint64           // writer entries dropped, for TableStats
}

func newPageStamps() *pageStamps {
	return &pageStamps{byPage: make(map[uint32][]*core.Cell)}
}

// inheritOnSplit copies the write stamps of oldPage onto newPage, which the
// split just made: the moved rows' page-level First-Committer-Wins stamps
// must follow them, or a stale-snapshot writer of a moved row would slip past
// the conflict check.
func (ps *pageStamps) inheritOnSplit(oldPage, newPage uint32) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if src := ps.byPage[oldPage]; len(src) > 0 {
		ps.byPage[newPage] = slices.Clone(src)
	}
}

// addWriter records that t wrote page (holding its exclusive page lock).
func (ps *pageStamps) addWriter(page uint32, t *core.Txn) {
	c := t.Cell() // allocated on t's own goroutine if this is its first write
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ws := ps.foldLocked(page); !slices.Contains(ws, c) {
		ps.byPage[page] = append(ws, c)
	}
}

// foldLocked drops the writers of page whose cells are severed, and its
// aborted ones, and returns those it keeps. A writer's retirement severs its
// cell, and it retires only once its commit precedes every active snapshot,
// and so every later one: it is no reader's newer writer again, and no
// First-Committer-Wins check can fire on it. An aborted writer's cell is
// never severed.
func (ps *pageStamps) foldLocked(page uint32) []*core.Cell {
	ws := ps.byPage[page]
	kept := ws[:0]
	for _, w := range ws {
		if t := w.Txn(); t != nil && !t.Aborted() {
			kept = append(kept, w)
		}
	}
	if removed := len(ws) - len(kept); removed > 0 {
		clear(ws[len(kept):])
		ps.pruned.Add(uint64(removed))
		ps.byPage[page] = kept
	}
	return kept
}

// newestCommitTS returns the latest commit timestamp among writers of page,
// the page-granularity First-Committer-Wins input.
func (ps *pageStamps) newestCommitTS(page uint32) (newest core.TS) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, w := range ps.foldLocked(page) {
		newest = max(newest, w.CommitTS())
	}
	return newest
}

// newerWriters appends to out the writers of page that committed after snap
// (the page-granularity "newer version" creators of thesis Figure 3.4).
func (ps *pageStamps) newerWriters(out []*core.Txn, page uint32, snap core.TS) []*core.Txn {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, w := range ps.foldLocked(page) {
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
	before := ps.pruned.Load() // only folds add to it, under ps.mu
	for page := range ps.byPage {
		if len(ps.foldLocked(page)) == 0 {
			delete(ps.byPage, page)
		}
	}
	return int(ps.pruned.Load() - before)
}
