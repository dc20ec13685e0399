package ssidb

import (
	"ssi/internal/core"
	"ssi/internal/lock"
	"ssi/internal/mvcc"
)

// rowTargets is the row-granularity lockTargets, the InnoDB prototype's
// (thesis §4.6): a point operation locks its row, scans also lock next-key
// gaps and structural writes probe them (§3.5), First-Committer-Wins compares
// versions of the key written, and a read marks the creators of the newer
// versions of the keys it read and no lock holder: a write is signalled by
// its version, or, for a new key, by the gap its insert split (package lock).
//
// A write takes no row or gap lock in the lock table, at any level: its
// uncommitted version is its write lock, decided and installed in one
// exclusive latch hold (mvcc.Table.Claim), and made an explicit entry only
// when another transaction has to wait for it, or it for another (package
// lock, "Implicit row locks"). Every explicit blocking grant on a row — S2PL's
// reads, a locked read — reads the row after the grant and waits while that
// read finds another writer's version still holding it (headHolder, the rule
// of a point read's lockRead and a scan's shareRound).
// Nor does an SSI point read of an existing row lock there: its SIREAD is the
// row's reader word (read; package lock, "Row readers"). Only a version
// retires a read: a locked read, and an Insert refused on the row, write
// none, and keep their reads.
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
// lock (§3.7.3). Every other locking read locks in the table (lockRead): an
// SSI read the word does not cover, S2PL's Shared read, and a locked read's
// Exclusive one, which keeps its SSI read in the word as a Get does.
func (rowTargets) read(tx *Txn, tb *table, key []byte, mode lock.Mode, snap core.TS) (mvcc.ReadResult, error) {
	if tx.slot == 0 && tx.readMode() == lock.SIRead {
		tx.slot = tx.db.mgr.ReaderSlot(tx.t)
	}
	if mode != lock.SIRead || tx.slot == 0 {
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

// lockRead locks key's row in the table in mode, marking nothing, and only
// then reads, through row (zero: none was found; the key may have been
// inserted since), so as to miss no writer that probed before the lock
// (Figure 3.4). A blocking mode — S2PL's Shared, a locked read's Exclusive —
// waits while the read finds the row held by another's version (headHolder)
// and reads again. A locked read then decides from that read (thesis §4.5):
// the snapshot, if deferred, follows the wait; a newer version committed is
// First-Committer-Wins; and at SSI an SIREAD stays beside the Exclusive lock,
// the row's word or else one in the table, while S2PL's Exclusive lock is
// its read lock too. The SIREAD holders the Exclusive grant found are not
// marked: the lock writes nothing they read. A transaction that has written
// reads first: a head of its own holds the row already, and a waiter that
// converted it holds a grant that a second request would wait behind.
func (tx *Txn) lockRead(tb *table, key []byte, row mvcc.Row, mode lock.Mode, snap core.TS) (res mvcc.ReadResult, err error) {
	locked := mode == lock.Exclusive
	if locked && len(tx.writes) > 0 {
		if res = tb.read(tx.t, snap, key, row); res.VisibleCreator == tx.t.Cell() {
			return res, nil
		}
	}
	k := rowKeyFor(tb, key, row)
	covered := tx.readMode() != lock.SIRead // a locked read's SIREAD, by the word
	for err = tx.wait(k, mode); err == nil; {
		if locked && tx.slot != 0 {
			var set bool
			if res, row, covered, set = tb.data.ReadAs(tx.t, snap, key, tx.slot, false); set {
				tx.reads = append(tx.reads, row)
			}
		} else {
			res = tb.read(tx.t, snap, key, row)
		}
		w := tx.headHolder(&res, snap)
		if mode == lock.SIRead || w == nil {
			break
		}
		err = tx.waitFor(w, k, mode)
	}
	if err != nil || !locked {
		return res, err
	}
	snap = tx.readPoint()
	for _, w := range res.NewerWriters {
		if w.CommitTS() > snap {
			return res, ErrWriteConflict
		}
	}
	if !covered {
		err = tx.wait(k, lock.SIRead)
	}
	return res, err
}

// headHolder is the held-head rule of every blocking read, a point read's
// (lockRead) and a scan round's (shareRound), for a read at snap after its
// lock's grant: the read's first newer writer or, with none, its visible
// version's creator, if that is another transaction that has not released
// its locks (lock.ImplicitHeld). Read at latest, a newer writer was
// uncommitted when read, so it is returned even once it has let go: the read
// missed its commit, and waitFor, with nothing to wait for, sends the reader
// to read again.
func (tx *Txn) headHolder(res *mvcc.ReadResult, snap core.TS) *core.Txn {
	var w *core.Txn
	if len(res.NewerWriters) > 0 {
		if w = res.NewerWriters[0]; snap == latest {
			return w
		}
	} else if res.VisibleCreator != nil {
		w = res.VisibleCreator.Txn()
	}
	if w != nil && w != tx.t && lock.ImplicitHeld(w) {
		return w
	}
	return nil
}

// waitFor makes w's implicit lock on k explicit, if w is not nil, and waits
// for k, holding mode on it once it returns nil — unless w let go of its
// locks first, when there is nothing to wait for.
func (tx *Txn) waitFor(w *core.Txn, k lock.Key, mode lock.Mode) error {
	if w != nil && !tx.db.locks.Convert(w, k) {
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

// write is the row-granularity write, at every level. It claims the row in
// one latch hold (mvcc.Table.Claim), whose outcome installs the version, or
// sends the writer to wait — converting the head writer's implicit lock, or
// acquiring behind the blocking entry its probe found (an S2PL reader's
// Shared lock, a locked read's or a converted Exclusive one) — and claim
// again, or ends the write. A structural write, to a key absent from the
// index, probes in that hold the gap the key splits (Figure 3.7's next-key
// lock, taken only by an insert that waited): the successor cannot change
// before the insert, so there is nothing to lock again. A Delete, or an
// Insert over a tombstone, is a row write: keys never leave the tree, so
// every scan that covered the key holds its row lock (visited, or Inherit),
// which the claim's probe finds.
func (rowTargets) write(tx *Txn, tb *table, key []byte, row mvcc.Row, val []byte, tombstone, mustNotExist bool) error {
	// The claim checks First-Committer-Wins against the snapshot, if the
	// transaction has one yet; S2PL takes none, and reads latest.
	in := mvcc.Intent{Snap: tx.t.Snapshot(), Data: val, Tombstone: tombstone, MustNotExist: mustNotExist}
	var c mvcc.Claim
claim:
	for {
		tx.rivals = emptied(tx.rivals) // the claim's probes fill it
		c = tb.data.Claim(tx.t, key, row, in, (*rowLocker)(tx))
		row = c.Row
		var err error
		switch c.Outcome {
		case mvcc.Held:
			err = tx.waitFor(c.Holder, rowKeyOf(tb, row.Key()), lock.Exclusive)
		case mvcc.Blocked:
			err = tx.wait(tx.blocked, lock.Exclusive)
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
	return nil
}

// rowLocker is a transaction as the row store's mvcc.Locker during its
// claims: the lock table's answers, for the transaction, under the latch.
type rowLocker Txn

func (*rowLocker) Holds(w *core.Txn) bool { return lock.ImplicitHeld(w) }

func (l *rowLocker) Probe(table, stored string) bool {
	return l.probe(lock.Key{Table: table, Kind: lock.Row, K: stored})
}

// ProbeGap probes the gap an insert splits, where predicate readers left
// their SIREAD (marked) or Shared (waited for) gap locks. Plain SI has no
// predicate protection to honour.
func (l *rowLocker) ProbeGap(table, succ string, hasSucc bool) bool {
	if (*Txn)(l).readMode() == noLock {
		return false
	}
	return l.probe(nextGapKey(table, succ, hasSucc))
}

// probe appends the readers it finds on k to the transaction's rival buffer,
// or keeps k as the key the write waits for.
func (l *rowLocker) probe(k lock.Key) bool {
	tx := (*Txn)(l)
	readers, blocked := tx.db.locks.Probe(tx.t, k, tx.rivals)
	tx.rivals = readers
	if blocked {
		tx.blocked = k
	}
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

// Inherit: on a structural insert, the gap locks that follow its rows are
// inherited onto the new key's gap under the table latch, atomically with
// the key becoming visible — otherwise a second insert into the now-split
// gap would escape the scanners' phantom detection — and the SIREADs onto its
// row, whose absence they read: every later write of the key, even after
// this insert rolls back, is a row write. Both are named by the store's copy
// of the key.
func (l *rowLocker) Inherit(table, stored, succ string, hasSucc bool) {
	src := nextGapKey(table, succ, hasSucc)
	if locks := (*Txn)(l).db.locks; locks.Inherit(src, lock.Key{Table: table, Kind: lock.Gap, K: stored}) {
		locks.Inherit(src, lock.Key{Table: table, Kind: lock.Row, K: stored})
	}
}

// nextGapKey names the gap before succ, or past table's last key if !hasSucc.
func nextGapKey(table, succ string, hasSucc bool) lock.Key {
	if !hasSucc {
		return lock.SupremumGapKey(table)
	}
	return lock.Key{Table: table, Kind: lock.Gap, K: succ}
}

// scanKeys skips the row lock of an item whose visible version is own's — a
// row the transaction wrote, whose write lock subsumes the read lock (§3.7.3).
// A scan reads nothing before its first key but the gap that key ends, which
// the key's own gap lock covers, so from adds nothing.
func (rowTargets) scanKeys(keys []lock.Key, tb *table, _ []byte, items []mvcc.ScanItem, end scanEnd, own *core.Cell) []lock.Key {
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

func (rowTargets) scanNewerWriters(writers []*core.Txn, _ *table, _ core.TS, items []mvcc.ScanItem, _ []lock.Key) []*core.Txn {
	for i := range items {
		writers = append(writers, items[i].NewerWriters...)
	}
	return writers
}

func (rowTargets) tableCreated(*table) {}
