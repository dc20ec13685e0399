package sercheck

import (
	"fmt"
	"sort"
	"testing"
)

// manual history helpers: transaction ids 1..n, commit timestamps supplied.

func TestEmptyHistorySerializable(t *testing.T) {
	h := NewHistory()
	if ok, cyc := h.Serializable(); !ok {
		t.Fatalf("empty history has cycle %v", cyc)
	}
}

func TestWRDependencyOrdering(t *testing.T) {
	h := NewHistory()
	h.RecBegin(1, "SI")
	h.RecWrite(1, "t", "x", false)
	h.RecCommit(1, 10)
	h.RecBegin(2, "SI")
	h.RecRead(2, "t", "x", 1, 11)
	h.RecCommit(2, 12)
	g := h.MVSG()
	if len(g.Edges) != 1 || g.Edges[0].Kind != WR || g.Edges[0].From != 1 || g.Edges[0].To != 2 {
		t.Fatalf("edges = %+v, want single wr 1->2", g.Edges)
	}
	if c := g.Cycle(); c != nil {
		t.Fatalf("cycle %v", c)
	}
}

func TestWriteSkewCycle(t *testing.T) {
	// T1 reads x,y (initial, sawWriter 0, readTS 5) writes x; T2 reads x,y
	// writes y; both commit. Classic write skew: rw in both directions.
	h := NewHistory()
	for id := uint64(1); id <= 2; id++ {
		h.RecBegin(id, "SI")
		h.RecRead(id, "t", "x", 0, 5)
		h.RecRead(id, "t", "y", 0, 5)
	}
	h.RecWrite(1, "t", "x", false)
	h.RecWrite(2, "t", "y", false)
	h.RecCommit(1, 10)
	h.RecCommit(2, 11)
	ok, cyc := h.Serializable()
	if ok {
		t.Fatal("write skew not detected")
	}
	if len(cyc) != 2 {
		t.Fatalf("cycle = %v, want length 2", cyc)
	}
}

func TestAbortedTransactionsExcluded(t *testing.T) {
	h := NewHistory()
	for id := uint64(1); id <= 2; id++ {
		h.RecBegin(id, "SSI")
		h.RecRead(id, "t", "x", 0, 5)
		h.RecRead(id, "t", "y", 0, 5)
	}
	h.RecWrite(1, "t", "x", false)
	h.RecWrite(2, "t", "y", false)
	h.RecCommit(1, 10)
	h.RecAbort(2) // SSI broke the skew
	if ok, cyc := h.Serializable(); !ok {
		t.Fatalf("aborted txn created cycle %v", cyc)
	}
}

func TestLostUpdateCycle(t *testing.T) {
	// Both read x=initial then both write x: rw T1->T2 plus ww T1->T2 and
	// rw T2->T1 — a cycle (this is why FCW must prevent it).
	h := NewHistory()
	for id := uint64(1); id <= 2; id++ {
		h.RecBegin(id, "none")
		h.RecRead(id, "t", "x", 0, 5)
		h.RecWrite(id, "t", "x", false)
	}
	h.RecCommit(1, 10)
	h.RecCommit(2, 11)
	if ok, _ := h.Serializable(); ok {
		t.Fatal("lost update not detected")
	}
}

func TestReadOnlyAnomalyCycle(t *testing.T) {
	// Fekete et al. 2004: Tout (w y,z) commits; Tin (r x, r z) reads Tout's
	// z but pre-pivot x; Tpivot (r y, w x) read pre-Tout y.
	h := NewHistory()
	h.RecBegin(1, "SI") // pivot
	h.RecRead(1, "t", "y", 0, 5)
	h.RecBegin(2, "SI") // out
	h.RecWrite(2, "t", "y", false)
	h.RecWrite(2, "t", "z", false)
	h.RecCommit(2, 10)
	h.RecBegin(3, "SI") // in, begins after out commits
	h.RecRead(3, "t", "x", 0, 11)
	h.RecRead(3, "t", "z", 2, 11)
	h.RecCommit(3, 12)
	h.RecWrite(1, "t", "x", false)
	h.RecCommit(1, 13)
	ok, cyc := h.Serializable()
	if ok {
		t.Fatal("read-only anomaly not detected")
	}
	if len(cyc) != 3 {
		t.Fatalf("cycle = %v, want 3 transactions", cyc)
	}
}

func TestPhantomEdgeFromScan(t *testing.T) {
	// T1 scans [a,z) at ts 5; T2 inserts "m" committing at 10: rw T1->T2.
	// T2 also scans and T1 also inserts: cycle.
	h := NewHistory()
	h.RecBegin(1, "SI")
	h.RecScan(1, "t", "a", "z", 5)
	h.RecBegin(2, "SI")
	h.RecScan(2, "t", "a", "z", 5)
	h.RecWrite(1, "t", "m1", false)
	h.RecWrite(2, "t", "m2", false)
	h.RecCommit(1, 10)
	h.RecCommit(2, 11)
	if ok, _ := h.Serializable(); ok {
		t.Fatal("phantom write skew not detected")
	}
}

func TestScanRangeBoundaries(t *testing.T) {
	// Writes outside [from,to) must not create scan edges.
	h := NewHistory()
	h.RecBegin(1, "SI")
	h.RecScan(1, "t", "b", "d", 5)
	h.RecCommit(1, 20)
	h.RecBegin(2, "SI")
	h.RecWrite(2, "t", "a", false) // below range
	h.RecWrite(2, "t", "d", false) // at exclusive upper bound
	h.RecCommit(2, 10)
	g := h.MVSG()
	if len(g.Edges) != 0 {
		t.Fatalf("spurious scan edges: %+v", g.Edges)
	}
	// A write inside the range does create the edge.
	h.RecBegin(3, "SI")
	h.RecWrite(3, "t", "c", false)
	h.RecCommit(3, 15)
	g = h.MVSG()
	found := false
	for _, e := range g.Edges {
		if e.Kind == RW && e.From == 1 && e.To == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing phantom edge, got %+v", g.Edges)
	}
}

func TestOwnWriteReadNoSelfEdge(t *testing.T) {
	h := NewHistory()
	h.RecBegin(1, "SI")
	h.RecWrite(1, "t", "x", false)
	h.RecRead(1, "t", "x", 1, 5)
	h.RecCommit(1, 10)
	g := h.MVSG()
	if len(g.Edges) != 0 {
		t.Fatalf("self edges: %+v", g.Edges)
	}
}

// TestFrozenReadResolvesBySnapshot: a read of a frozen version names no
// writer, so it is attributed to the version its read point selects — the
// newest committed at or before it — and a read point below every recorded
// version reads as absent.
func TestFrozenReadResolvesBySnapshot(t *testing.T) {
	for _, c := range []struct {
		name   string
		readTS uint64
		want   []Edge // the reader's edges, reader id 3
	}{
		{"between", 7, []Edge{{From: 1, To: 3, Kind: WR}, {From: 3, To: 2, Kind: RW}}},
		{"before-all", 3, []Edge{{From: 3, To: 1, Kind: RW}, {From: 3, To: 2, Kind: RW}}},
		// A locking read's read point is the clock, which may be the newest
		// commit itself.
		{"at-newest", 9, []Edge{{From: 2, To: 3, Kind: WR}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := NewHistory()
			for id, ct := range map[uint64]uint64{1: 5, 2: 9} {
				h.RecBegin(id, "SSI")
				h.RecWrite(id, "t", "x", false)
				h.RecCommit(id, ct)
			}
			h.RecBegin(3, "SSI")
			h.RecRead(3, "t", "x", frozenWriter, c.readTS)
			h.RecCommit(3, 20)
			var got []Edge
			for _, e := range h.MVSG().Edges {
				if e.From == 3 || e.To == 3 {
					got = append(got, Edge{From: e.From, To: e.To, Kind: e.Kind})
				}
			}
			sort.Slice(got, func(i, j int) bool {
				return got[i].From < got[j].From || got[i].From == got[j].From && got[i].To < got[j].To
			})
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Fatalf("reader's edges %v, want %v", got, c.want)
			}
		})
	}
}

func TestCommittedOrder(t *testing.T) {
	h := NewHistory()
	h.RecBegin(5, "SI")
	h.RecCommit(5, 30)
	h.RecBegin(7, "SI")
	h.RecCommit(7, 10)
	h.RecBegin(9, "SI")
	h.RecAbort(9)
	got := h.Committed()
	if len(got) != 2 || got[0] != 7 || got[1] != 5 {
		t.Fatalf("Committed() = %v", got)
	}
}

func TestWWChainNoCycle(t *testing.T) {
	h := NewHistory()
	for id := uint64(1); id <= 4; id++ {
		h.RecBegin(id, "SI")
		h.RecWrite(id, "t", "x", false)
		h.RecCommit(id, 10*id)
	}
	if ok, cyc := h.Serializable(); !ok {
		t.Fatalf("version chain produced cycle %v", cyc)
	}
}
