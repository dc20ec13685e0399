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

func TestPageStamps(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	ps := newPageStamps(m.OldestActiveSnapshot)
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
	// Pruning folds old commits into the floor but keeps FCW exact.
	if n := ps.prune(ct + 1); n != 1 || ps.pruned.Load() != 1 {
		t.Fatalf("prune removed %d (counted %d), want 1", n, ps.pruned.Load())
	}
	if got := ps.newestCommitTS(7); got != ct {
		t.Fatalf("newestCommitTS after prune = %d, want %d", got, ct)
	}
	if len(ps.newerWriters(nil, 7, snap)) != 0 {
		t.Fatal("pruned writer still listed")
	}
}

func TestPageStampsDropAborted(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	ps := newPageStamps(m.OldestActiveSnapshot)
	w := m.Begin(core.SnapshotIsolation)
	m.AssignSnapshot(w)
	ps.addWriter(3, w)
	m.Abort(w)
	ps.prune(1)
	if got := ps.newestCommitTS(3); got != 0 {
		t.Fatalf("aborted writer left a stamp: %d", got)
	}
}

// TestPageStampsHotPageBounded: a page written by an unending stream of
// short committed transactions must not accumulate one writer entry per
// transaction — addWriter folds pre-watermark commits into the maxCommit
// floor once the list passes the inline-prune length.
func TestPageStampsHotPageBounded(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	ps := newPageStamps(m.OldestActiveSnapshot)
	var lastCT core.TS
	for i := 0; i < 500; i++ {
		w := m.Begin(core.SnapshotIsolation)
		m.AssignSnapshot(w)
		ps.addWriter(7, w)
		lastCT = commitCore(t, m, w)
	}
	ps.mu.Lock()
	n := len(ps.byPage[7].writers)
	ps.mu.Unlock()
	// The prune is amortised (one list scan per stampPruneLen new writers),
	// so between prunes the list may hold up to ~2x the trigger length —
	// bounded either way, where the old behaviour grew one entry per
	// transaction forever.
	if n > 2*stampPruneLen {
		t.Fatalf("hot page kept %d writer entries, want <= %d", n, 2*stampPruneLen)
	}
	// The First-Committer-Wins floor survives the folding exactly.
	if got := ps.newestCommitTS(7); got != lastCT {
		t.Fatalf("newestCommitTS after folding = %d, want %d", got, lastCT)
	}
}
