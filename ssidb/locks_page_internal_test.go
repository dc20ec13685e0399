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
		n += len(h)
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
	// The reader's end retires w1: the next walk drops its entry. Every
	// snapshot that can still write is at or past ct, so the page's
	// First-Committer-Wins verdict on it is the one w1's stamp gave.
	m.Finish(reader, false)
	late := m.Begin(core.SnapshotIsolation)
	lateSnap := m.AssignSnapshot(late)
	if ct > lateSnap {
		t.Fatalf("a snapshot taken after w1 retired (%d) precedes its commit (%d)", lateSnap, ct)
	}
	if got := ps.newestCommitTS(7); got > lateSnap {
		t.Fatalf("newestCommitTS after the fold = %d: a write at %d would conflict", got, lateSnap)
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
// next writer's addWriter drops it: the page never holds more than the
// writer adding itself, and no writer of the stream fails First-Committer-Wins.
func TestPageStampsHotPageBounded(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	ps := newPageStamps()
	const writers = 500
	for i := 0; i < writers; i++ {
		w := m.Begin(core.SnapshotIsolation)
		snap := m.AssignSnapshot(w)
		ps.addWriter(7, w)
		if n := writerEntries(ps); n > 1 {
			t.Fatalf("writer %d: hot page kept %d writer entries, want <= 1", i, n)
		}
		if got := ps.newestCommitTS(7); got > snap {
			t.Fatalf("writer %d: newestCommitTS %d is past its snapshot %d", i, got, snap)
		}
		commitCore(t, m, w)
	}
	// The last writer retired at its end too: a walk drops every entry.
	if ps.newestCommitTS(7); writerEntries(ps) != 0 || ps.pruned.Load() != writers {
		t.Fatalf("%d entries kept (%d dropped) after every writer retired, want 0 (%d)", writerEntries(ps), ps.pruned.Load(), writers)
	}
}

// TestPageStampsFoldWhenWritersRetire drives the fold through the engine:
// serial writers of one key stamp one leaf, and each retires at its own end,
// so a single read of the key — a walk of the leaf's writers — leaves no
// entry, however few writers there were, and a later write of the key still
// passes First-Committer-Wins.
func TestPageStampsFoldWhenWritersRetire(t *testing.T) {
	db := Open(Options{Granularity: GranularityPage})
	key := []byte("k")
	for i := 0; i < 10; i++ {
		if err := db.Run(SerializableSI, func(tx *Txn) error { return tx.Put("t", key, []byte{byte(i)}) }); err != nil {
			t.Fatal(err)
		}
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
	late := db.Begin(SerializableSI)
	defer late.Abort()
	if _, _, err := late.Get("t", []byte("a")); err != nil { // materialise the snapshot
		t.Fatal(err)
	}
	if err := late.Put("t", key, []byte("late")); err != nil {
		t.Fatalf("a write of the key after every writer retired: %v", err)
	}
}
