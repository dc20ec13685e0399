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
// A lock names its row or gap by the store's own key string wherever a descent
// has found that key: every scanned row, every gap (named by the key that ends
// it, which exists, the gap a structural insert creates included), and a point
// operation's row, through the handle of its one Locate. A write to a key
// without a row names its exclusive lock by the copy of the key its absent
// handle carries (mvcc.Absent); a read or a locked read of a key without a
// row copies key bytes for its lock when it takes it (rowKeyFor).
type rowTargets struct{}

func rowKeyOf(tb *table, stored string) lock.Key {
	return lock.Key{Table: tb.name, Kind: lock.Row, K: stored}
}

func gapKeyOf(tb *table, stored string) lock.Key {
	return lock.Key{Table: tb.name, Kind: lock.Gap, K: stored}
}

// rowKeyFor names the row lock of key, whose handle is row: by the row's key
// string, or the copy an absent handle carries, or else (the zero Row, whose
// Key is empty) by a copy made here.
func rowKeyFor(tb *table, key []byte, row mvcc.Row) lock.Key {
	if row.Key() == "" {
		return lock.RowKey(tb.name, key)
	}
	return rowKeyOf(tb, row.Key())
}

func (rowTargets) lockRead(tx *Txn, tb *table, key []byte, row mvcc.Row, mode lock.Mode, _ core.TS) error {
	rivals, err := tx.db.locks.AcquireInto(tx.t, rowKeyFor(tb, key, row), mode, emptied(tx.rivals))
	tx.rivals = rivals
	if err != nil {
		return err
	}
	return tx.markAsReader(rivals)
}

func (rowTargets) lockWrite(tx *Txn, tb *table, key []byte, row mvcc.Row, structural bool) ([]*core.Txn, core.TS, error) {
	if structural && tx.readMode() != noLock {
		// Figure 3.7: inserts and deletes exclusively lock the gap before
		// the next key, where predicate readers left their SIREAD (marked)
		// or Shared (waited for) gap locks. Plain SI has no predicate
		// protection to honour.
		if err := tx.gapLock(tb, key); err != nil {
			return nil, 0, err
		}
	}
	readers, err := tx.db.locks.AcquireInto(tx.t, rowKeyFor(tb, key, row), lock.Exclusive, emptied(tx.rivals))
	tx.rivals = readers
	if err != nil {
		return nil, 0, err
	}
	if row.IsZero() {
		// Look again: the row may have been inserted, and committed, by now.
		row, _ = tb.data.Locate(key)
	}
	return readers, row.NewestCommitTS(), nil
}

func (rowTargets) install(tx *Txn, tb *table, key []byte, row mvcc.Row, val []byte, tombstone bool) (mvcc.Row, error) {
	if !row.IsZero() {
		row.Write(tx.t, val, tombstone)
		return row, nil
	}
	// On a structural insert, SIREAD gap locks covering the target gap are
	// inherited onto the new key's gap under the table latch, atomically
	// with the key becoming visible — otherwise a second insert into the
	// now-split gap would escape the scanners' phantom detection. The new gap
	// is named by the store's copy of the key, as every other gap is.
	row, inserted := tb.data.Write(tx.t, key, val, tombstone, func(stored, succ string, hasSucc bool) {
		src := lock.SupremumGapKey(tb.name)
		if hasSucc {
			src = gapKeyOf(tb, succ)
		}
		tx.db.locks.InheritSIRead(src, gapKeyOf(tb, stored))
	})
	if inserted && tx.readMode() != noLock {
		// Re-acquire the gap now that the key is visible: the successor may
		// have changed between planning and insertion, and inherited SIREAD
		// holders on the true gap must be marked as conflicts.
		return row, tx.gapLock(tb, key)
	}
	return row, nil
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

func (rowTargets) scanKeys(keys []lock.Key, tb *table, items []mvcc.ScanItem, end scanEnd) []lock.Key {
	for i := range items {
		keys = append(keys, rowKeyOf(tb, items[i].Key), gapKeyOf(tb, items[i].Key))
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

func (rowTargets) scanNewerWriters(writers []*core.Txn, _ *table, _ core.TS, items []mvcc.ScanItem, _ []lock.Key) []*core.Txn {
	for i := range items {
		writers = append(writers, items[i].NewerWriters...)
	}
	return writers
}

func (rowTargets) tableCreated(*table) {}
