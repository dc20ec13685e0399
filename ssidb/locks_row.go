package ssidb

import (
	"ssi/internal/core"
	"ssi/internal/lock"
	"ssi/internal/mvcc"
)

// rowTargets is the row-granularity lockTargets, the InnoDB prototype's
// (thesis §4.6): a point operation locks its row, structure changes and
// scans also lock next-key gaps (§3.5), First-Committer-Wins compares
// versions of the key written, and the newer writers a read must mark are
// the creators of the newer versions of the keys it read.
//
// A write takes no row lock in the lock table, at any level: its uncommitted
// version is its write lock, decided and installed in one exclusive latch
// hold (mvcc.Table.Claim), and made an explicit entry only when another
// transaction has to wait for it (package lock, "Implicit row locks"). Every
// explicit blocking grant on a row — S2PL's reads, a locked read — waits,
// after the grant, for a writer whose version still holds the row. Nor does
// an SSI point read of an existing row lock there: its SIREAD is the row's
// reader word (read; package lock, "Row readers"). Only a version retires a
// read: a locked read, and an Insert refused on the row, write none, and keep
// their reads.
//
// A lock names its row or gap by the store's own key string wherever a descent
// has found that key: every scanned row, every gap (named by the key that ends
// it, which exists, the gap a structural insert creates included), and a point
// operation's row, through the handle of its one Locate. An explicit lock on
// a key without a row copies key bytes for its lock when it takes it
// (rowKeyFor); a write to such a key names nothing before it inserts the key.
type rowTargets struct{}

func rowKeyOf(tb *table, stored string) lock.Key {
	return lock.Key{Table: tb.name, Kind: lock.Row, K: stored}
}

func gapKeyOf(tb *table, stored string) lock.Key {
	return lock.Key{Table: tb.name, Kind: lock.Gap, K: stored}
}

// rowKeyFor names the row lock of key, whose handle is row: by the row's key
// string, or else (the zero Row, whose Key is empty) by a copy made here.
func rowKeyFor(tb *table, key []byte, row mvcc.Row) lock.Key {
	if row.IsZero() {
		return lock.RowKey(tb.name, key)
	}
	return rowKeyOf(tb, row.Key())
}

// read is a point read. A SIREAD on an existing row lives on the row: the
// read registers in the row's reader word in the hold that reads it
// (mvcc.Table.ReadAs), where writers find it (Claim) — unless the
// head is the transaction's own version, whose write lock subsumes the read
// lock (§3.7.3). Every other locking read locks in the table (lockRead).
func (rowTargets) read(tx *Txn, tb *table, key []byte, mode lock.Mode, snap core.TS) (mvcc.ReadResult, error) {
	if mode == lock.SIRead && tx.slot == 0 {
		tx.slot = tx.db.mgr.ReaderSlot(tx.t)
	}
	if mode == lock.Shared || tx.slot == 0 {
		row, _ := tb.data.Locate(key)
		return tx.lockRead(tb, key, row, mode, snap)
	}
	res, row, covered, set := tb.data.ReadAs(tx.t, snap, key, tx.slot, len(tx.writes) > 0)
	if set {
		tx.reads = append(tx.reads, row)
	}
	if covered {
		return res, nil
	}
	return tx.lockRead(tb, key, row, mode, snap)
}

// lockRead locks key's row in the table in mode, marking the exclusive
// holders found, and only then reads, through row (zero: none was found), so
// as to miss no writer that probed before the lock (Figure 3.4).
func (tx *Txn) lockRead(tb *table, key []byte, row mvcc.Row, mode lock.Mode, snap core.TS) (mvcc.ReadResult, error) {
	k := rowKeyFor(tb, key, row)
	rivals, err := tx.db.locks.AcquireInto(tx.t, k, mode, emptied(tx.rivals))
	tx.rivals = rivals
	if err == nil && mode == lock.Shared {
		row, err = tx.awaitHead(tb, key, row, k, mode)
	} else if err == nil {
		err = tx.markAsReader(rivals)
	}
	if err != nil {
		return mvcc.ReadResult{}, err
	}
	return tb.read(tx.t, snap, key, row), nil
}

// awaitHead runs after an explicit blocking grant of mode on k, the row lock
// of key (row: its handle, zero if Locate found none; the key may have been
// inserted since): while the row's head version is another transaction's that
// still holds the row, it converts that writer's implicit lock and waits for
// it. It returns the row, located again if it was zero.
func (tx *Txn) awaitHead(tb *table, key []byte, row mvcc.Row, k lock.Key, mode lock.Mode) (mvcc.Row, error) {
	for {
		if row.IsZero() {
			row, _ = tb.data.Locate(key)
		}
		w := row.Writer()
		if w == nil || w == tx.t || !lock.ImplicitHeld(w) {
			return row, nil
		}
		if err := tx.waitFor(w, k, mode); err != nil {
			return row, err
		}
	}
}

// waitFor makes w's implicit lock on k explicit and waits for it, holding
// mode on k once it returns nil — unless w let go of its locks first, when
// there is nothing to wait for.
func (tx *Txn) waitFor(w *core.Txn, k lock.Key, mode lock.Mode) error {
	if !tx.db.locks.Convert(w, k) {
		return nil
	}
	return tx.wait(k, mode)
}

// wait acquires mode on k, waiting for its holders, and drops the rivals the
// grant found: the caller collected the rivals that count, collects them
// again, or has none to mark. The transaction's rival buffer holds them.
func (tx *Txn) wait(k lock.Key, mode lock.Mode) error {
	rivals, err := tx.db.locks.AcquireInto(tx.t, k, mode, emptied(tx.rivals))
	tx.rivals = rivals
	return err
}

// lockForUpdate is GetForUpdate's exclusive lock: a lock-table entry at every
// level, and then a wait for a writer whose version still holds the row —
// unless the row's head is the transaction's own version, which holds the row
// already: a waiter that converted its lock holds a grant on the entry that a
// second request would wait behind. The SIREAD holders the grant finds are
// not marked: the lock writes nothing they read.
func (rowTargets) lockForUpdate(tx *Txn, tb *table, key []byte, row mvcc.Row) (core.TS, error) {
	if len(tx.writes) > 0 && row.Writer() == tx.t {
		return row.NewestCommitTS(), nil
	}
	k := rowKeyFor(tb, key, row)
	if err := tx.wait(k, lock.Exclusive); err != nil {
		return 0, err
	}
	row, err := tx.awaitHead(tb, key, row, k, lock.Exclusive)
	if err != nil {
		return 0, err
	}
	return row.NewestCommitTS(), nil
}

// write is the row-granularity write, at every level. It claims the row in
// one latch hold (mvcc.Table.Claim), whose outcome installs the version, or
// sends the writer to wait — converting the head writer's implicit lock, or
// acquiring behind a blocking entry (an S2PL reader's Shared lock, a locked
// read's or a converted Exclusive one) — and claim again, or ends the write.
// Structural writes lock the gap first and again once the key is in the tree
// (Figure 3.7).
func (rowTargets) write(tx *Txn, tb *table, key []byte, row mvcc.Row, val []byte, tombstone, mustNotExist bool) error {
	mode := tx.readMode()
	if (tombstone || mustNotExist || row.IsZero()) && mode != noLock {
		// Figure 3.7: inserts and deletes exclusively lock the gap before
		// the next key, where predicate readers left their SIREAD (marked)
		// or Shared (waited for) gap locks. Plain SI has no predicate
		// protection to honour.
		if err := tx.gapLock(tb, key); err != nil {
			return err
		}
	}
	// The claim checks First-Committer-Wins against the snapshot, if the
	// transaction has one yet; S2PL takes none, and reads latest.
	in := mvcc.Intent{Snap: tx.t.Snapshot(), Data: val, Tombstone: tombstone, MustNotExist: mustNotExist}
	inserted := false
	var c mvcc.Claim
claim:
	for {
		tx.rivals = emptied(tx.rivals) // the claim's probe fills it
		c = tb.data.Claim(tx.t, key, row, in, (*rowLocker)(tx))
		row, inserted = c.Row, inserted || c.Inserted
		var err error
		switch {
		case c.Outcome == mvcc.Held:
			err = tx.waitFor(c.Holder, rowKeyOf(tb, row.Key()), lock.Exclusive)
		case c.Outcome == mvcc.Blocked:
			err = tx.wait(rowKeyOf(tb, row.Key()), lock.Exclusive)
		default:
			break claim
		}
		if err != nil {
			return err
		}
	}
	if c.Outcome == mvcc.Written {
		tx.writes = append(tx.writes, row)
	}
	tx.readPoint() // a deferred snapshot, above every commit the claim found
	if err := tx.markAsWriter(tx.rivals); err != nil {
		return err
	}
	switch c.Outcome {
	case mvcc.Conflict:
		return ErrWriteConflict
	case mvcc.Exists:
		return ErrKeyExists
	}
	if inserted && mode != noLock {
		// Re-acquire the gap now that the key is visible: the successor may
		// have changed between planning and insertion, and inherited SIREAD
		// holders on the true gap must be marked as conflicts.
		return tx.gapLock(tb, key)
	}
	return nil
}

// rowLocker is a transaction as the row store's mvcc.Locker during its
// claims: the lock table's answers, for the transaction, under the latch.
type rowLocker Txn

func (*rowLocker) Holds(w *core.Txn) bool { return lock.ImplicitHeld(w) }

// Probe appends the readers it finds to the transaction's rival buffer.
func (l *rowLocker) Probe(table, stored string) bool {
	tx := (*Txn)(l)
	readers, blocked := tx.db.locks.Probe(tx.t, lock.Key{Table: table, Kind: lock.Row, K: stored}, tx.rivals)
	tx.rivals = readers
	return blocked
}

// Reader resolves the slot under the latch and appends the reader to the
// rival buffer — unless it is the transaction's own (§3.7.3).
func (l *rowLocker) Reader(slot uint32) bool {
	tx := (*Txn)(l)
	if slot == tx.slot {
		return true
	}
	tx.rivals = append(tx.rivals, tx.db.mgr.Reader(slot))
	return false
}

// Inherit: on a structural insert, SIREAD gap locks covering the target gap
// are inherited onto the new key's gap under the table latch, atomically with
// the key becoming visible — otherwise a second insert into the now-split gap
// would escape the scanners' phantom detection. The new gap is named by the
// store's copy of the key, as every other gap is.
func (l *rowLocker) Inherit(table, stored, succ string, hasSucc bool) {
	src := lock.SupremumGapKey(table)
	if hasSucc {
		src = lock.Key{Table: table, Kind: lock.Gap, K: succ}
	}
	(*Txn)(l).db.locks.InheritSIRead(src, lock.Key{Table: table, Kind: lock.Gap, K: stored})
}

// gapLock implements the next-key gap protocol of Figures 3.6/3.7 for the
// writer side: exclusively lock the gap before the successor of key (or the
// supremum), looping until the successor is stable. For SSI the rivals are
// SIREAD gap holders — concurrent predicate readers.
func (tx *Txn) gapLock(tb *table, key []byte) error {
	for {
		succ, ok := tb.data.Successor(key)
		gk := lock.SupremumGapKey(tb.name)
		if ok {
			gk = gapKeyOf(tb, succ)
		}
		rivals, err := tx.db.locks.AcquireInto(tx.t, gk, lock.Exclusive, emptied(tx.rivals))
		tx.rivals = rivals
		if err != nil {
			return err
		}
		if err := tx.markAsWriter(rivals); err != nil {
			return err
		}
		succ2, ok2 := tb.data.Successor(key)
		if ok == ok2 && succ == succ2 {
			return nil
		}
	}
}

// A scan's first gap is the one before its first key, which scanKeys covers.
func (rowTargets) lockScanStart(*Txn, *scanCtx, *table, []byte, lock.Mode, core.TS) error {
	return nil
}

// scanKeys skips the row lock of an item whose visible version is own's — a
// row the transaction wrote, whose write lock subsumes the read lock (§3.7.3).
func (rowTargets) scanKeys(keys []lock.Key, tb *table, items []mvcc.ScanItem, end scanEnd, own *core.Cell) []lock.Key {
	for i := range items {
		if own == nil || items[i].VisibleCreator != own {
			keys = append(keys, rowKeyOf(tb, items[i].Key))
		}
		keys = append(keys, gapKeyOf(tb, items[i].Key))
	}
	switch {
	case end.reached:
		keys = append(keys, gapKeyOf(tb, end.key))
	case end.atEnd:
		// The scan ran off the table end: protect the space beyond the last
		// key too.
		keys = append(keys, lock.SupremumGapKey(tb.name))
	}
	return keys
}

// awaitHeads waits for the writer of each item's head version that still
// holds the row, item by item, as awaitHead does for a point read. Read at
// the latest timestamp, an uncommitted head is the item's first newer writer;
// a committed head still held is its visible version.
func (rowTargets) awaitHeads(tx *Txn, tb *table, items []mvcc.ScanItem) (bool, error) {
	waited := false
	for i := range items {
		it := &items[i]
		var w *core.Txn
		if len(it.NewerWriters) > 0 {
			w = it.NewerWriters[0]
		} else if it.VisibleCreator != nil {
			w = it.VisibleCreator.Txn()
		}
		if w == nil || w == tx.t || !lock.ImplicitHeld(w) {
			continue
		}
		if err := tx.waitFor(w, rowKeyOf(tb, it.Key), lock.Shared); err != nil {
			return waited, err
		}
		waited = true
	}
	return waited, nil
}

func (rowTargets) scanNewerWriters(writers []*core.Txn, _ *table, _ core.TS, items []mvcc.ScanItem, _ []lock.Key) []*core.Txn {
	for i := range items {
		writers = append(writers, items[i].NewerWriters...)
	}
	return writers
}

func (rowTargets) tableCreated(*table) {}
