package ssidb

import (
	"testing"

	"ssi/internal/core"
)

func commitCore(t *testing.T, m *core.Manager, txn *core.Txn) core.TS {
	t.Helper()
	ct, err := m.CommitPrepare(txn)
	if err != nil {
		t.Fatal(err)
	}
	m.Finish(txn, false)
	return ct
}

// writerEntries counts the writer entries ps keeps across all its pages.
func writerEntries(ps *pageStamps) int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := 0
	for _, h := range ps.byPage {
		n += len(h.writers)
	}
	return n
}

func TestPageStamps(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	ps := newPageStamps()
	w1 := m.Begin(core.SnapshotIsolation)
	m.AssignSnapshot(w1)
	ps.addWriter(7, w1)
	ps.addWriter(7, w1) // idempotent

	if ps.newestCommitTS(7) != 0 {
		t.Fatal("uncommitted writer counted in newestCommitTS")
	}
	reader := m.Begin(core.SnapshotIsolation)
	snap := m.AssignSnapshot(reader)
	ct := commitCore(t, m, w1)
	if got := ps.newestCommitTS(7); got != ct {
		t.Fatalf("newestCommitTS = %d, want %d", got, ct)
	}
	nw := ps.newerWriters(nil, 7, snap)
	if len(nw) != 1 || nw[0] != w1 {
		t.Fatalf("newerWriters = %v", nw)
	}
	if len(ps.newerWriters(nil, 7, ct+1)) != 0 {
		t.Fatal("writer older than snapshot reported")
	}
	// The reader's snapshot precedes the commit, so w1 has not retired and
	// its entry stays.
	if n := writerEntries(ps); n != 1 || ps.pruned.Load() != 0 {
		t.Fatalf("%d entries kept (%d folded) under the reader, want 1 (0)", n, ps.pruned.Load())
	}
	// The reader's end retires w1: the next walk folds its commit into the
	// floor and keeps First-Committer-Wins exact.
	m.Finish(reader, false)
	if got := ps.newestCommitTS(7); got != ct {
		t.Fatalf("newestCommitTS after the fold = %d, want %d", got, ct)
	}
	if n := writerEntries(ps); n != 0 || ps.pruned.Load() != 1 {
		t.Fatalf("%d entries kept (%d folded) after w1 retired, want 0 (1)", n, ps.pruned.Load())
	}
	if len(ps.newerWriters(nil, 7, snap)) != 0 {
		t.Fatal("folded writer still listed")
	}
}

func TestPageStampsDropAborted(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	ps := newPageStamps()
	w := m.Begin(core.SnapshotIsolation)
	m.AssignSnapshot(w)
	ps.addWriter(3, w)
	m.Abort(w)
	if n := ps.prune(); n != 1 {
		t.Fatalf("prune removed %d entries, want the aborted writer's", n)
	}
	if _, ok := ps.byPage[3]; ok {
		t.Fatal("a page with only an aborted writer was kept")
	}
	if got := ps.newestCommitTS(3); got != 0 {
		t.Fatalf("aborted writer left a stamp: %d", got)
	}
}

// TestPageStampsHotPageBounded: a page written by an unending stream of
// short committed transactions must not accumulate one writer entry per
// transaction. Each writer of a serial stream retires at its own end, so the
// next writer's addWriter folds it: the page never holds more than the
// writer adding itself.
func TestPageStampsHotPageBounded(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	ps := newPageStamps()
	var lastCT core.TS
	for i := 0; i < 500; i++ {
		w := m.Begin(core.SnapshotIsolation)
		m.AssignSnapshot(w)
		ps.addWriter(7, w)
		if n := writerEntries(ps); n > 1 {
			t.Fatalf("writer %d: hot page kept %d writer entries, want <= 1", i, n)
		}
		lastCT = commitCore(t, m, w)
	}
	// The First-Committer-Wins floor survives the folding exactly.
	if got := ps.newestCommitTS(7); got != lastCT {
		t.Fatalf("newestCommitTS after folding = %d, want %d", got, lastCT)
	}
}

// TestPageStampsFoldWhenWritersRetire drives the fold through the engine:
// serial writers of one key stamp one leaf, and each retires at its own end,
// so a single read of the key — a walk of the leaf's writers — leaves no
// entry, however few writers there were, while the leaf's First-Committer-Wins
// floor still holds the last commit.
func TestPageStampsFoldWhenWritersRetire(t *testing.T) {
	db := Open(Options{Granularity: GranularityPage})
	key := []byte("k")
	var lastCT core.TS
	for i := 0; i < 10; i++ {
		tx := db.Begin(SerializableSI)
		if err := tx.Put("t", key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		rec := tx.t // the handle lets go of its record at the end
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		lastCT = rec.CommitTS()
	}
	if err := db.Run(SerializableSI, func(tx *Txn) error {
		_, _, err := tx.Get("t", key)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tb := (*db.tables.Load())["t"]
	if n := writerEntries(tb.stamps); n != 0 {
		t.Fatalf("%d writer entries left after every writer retired and the page was read, want 0", n)
	}
	if got := tb.stamps.newestCommitTS(tb.data.LeafPage(key)); got != lastCT {
		t.Fatalf("newestCommitTS = %d, want the last commit %d", got, lastCT)
	}
}
