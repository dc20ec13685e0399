// Package sercheck validates executions for serializability from the
// outside: it records the operation history of a database run (implementing
// ssidb.Recorder), reconstructs the multiversion serialization graph (MVSG)
// over the committed transactions — ww-, wr- and rw-dependency edges,
// including predicate/phantom edges from range scans — and searches it for
// cycles. An acyclic MVSG proves the execution serializable (thesis §2.5.1).
//
// This is the mechanised form of the validation the thesis performs in §4.7:
// run interleavings, then "manually check that no non-serializable executions
// were permitted". Tests use it to prove that Serializable SI histories are
// always acyclic while plain SI histories exhibit the classic anomalies.
package sercheck

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// EdgeKind classifies an MVSG dependency.
type EdgeKind int

const (
	// WW: the source produced a version, the target a later version.
	WW EdgeKind = iota
	// WR: the target read a version the source produced.
	WR
	// RW: the source read a version older than one the target produced
	// (an antidependency — the only kind possible between concurrent
	// snapshot transactions, and the building block of SSI).
	RW
)

// String names the edge kind as in the paper's figures.
func (k EdgeKind) String() string {
	switch k {
	case WW:
		return "ww"
	case WR:
		return "wr"
	default:
		return "rw"
	}
}

// Edge is one MVSG dependency between committed transactions.
type Edge struct {
	From, To uint64
	Kind     EdgeKind
	Table    string
	Key      string
}

// frozenWriter is the sawWriter of a read of a frozen version, one whose
// writer retired before the read (ssidb.Recorder): the store no longer knows
// which transaction wrote it, only that its commit preceded the read.
const frozenWriter = math.MaxUint64

type readOp struct {
	table, key string
	sawWriter  uint64
	readTS     uint64
}

type writeOp struct {
	table, key string
}

type scanOp struct {
	table, from, to string
	readTS          uint64
}

type txnHist struct {
	id       uint64
	iso      string
	commitTS uint64
	aborted  bool
	reads    []readOp
	writes   []writeOp
	scans    []scanOp
}

// History records one execution. It implements ssidb.Recorder and is safe
// for concurrent use. The zero value is not usable; call NewHistory.
type History struct {
	mu   sync.Mutex
	txns map[uint64]*txnHist
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{txns: make(map[uint64]*txnHist)}
}

func (h *History) txn(id uint64) *txnHist {
	t := h.txns[id]
	if t == nil {
		t = &txnHist{id: id}
		h.txns[id] = t
	}
	return t
}

// RecBegin implements ssidb.Recorder.
func (h *History) RecBegin(txn uint64, iso string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.txn(txn).iso = iso
}

// RecRead implements ssidb.Recorder.
func (h *History) RecRead(txn uint64, table, key string, sawWriter uint64, readTS uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.txn(txn)
	t.reads = append(t.reads, readOp{table: table, key: key, sawWriter: sawWriter, readTS: readTS})
}

// RecWrite implements ssidb.Recorder.
func (h *History) RecWrite(txn uint64, table, key string, tombstone bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.txn(txn)
	t.writes = append(t.writes, writeOp{table: table, key: key})
}

// RecScan implements ssidb.Recorder.
func (h *History) RecScan(txn uint64, table, from, to string, readTS uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.txn(txn)
	t.scans = append(t.scans, scanOp{table: table, from: from, to: to, readTS: readTS})
}

// RecCommit implements ssidb.Recorder.
func (h *History) RecCommit(txn uint64, commitTS uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.txn(txn).commitTS = commitTS
}

// RecAbort implements ssidb.Recorder.
func (h *History) RecAbort(txn uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.txn(txn).aborted = true
}

// Committed returns the IDs of committed transactions in commit order.
func (h *History) Committed() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []uint64
	for id, t := range h.txns {
		if t.commitTS != 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return h.txns[out[i]].commitTS < h.txns[out[j]].commitTS })
	return out
}

// version is one committed version of a key, in commit order.
type version struct {
	writer   uint64
	commitTS uint64
}

// Graph is the MVSG over the committed transactions of a history.
type Graph struct {
	Nodes []uint64
	Edges []Edge
	adj   map[uint64]map[uint64]bool
}

// MVSG builds the multiversion serialization graph of the recorded
// execution. Only committed transactions participate: aborted transactions'
// versions were rolled back and their reads are void.
func (h *History) MVSG() *Graph {
	h.mu.Lock()
	defer h.mu.Unlock()

	g := &Graph{adj: make(map[uint64]map[uint64]bool)}
	committed := make(map[uint64]*txnHist)
	for id, t := range h.txns {
		if t.commitTS != 0 {
			committed[id] = t
			g.Nodes = append(g.Nodes, id)
		}
	}
	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i] < g.Nodes[j] })

	// Version order per key = commit order of its committed writers.
	versions := make(map[string][]version) // "table\x00key" -> ordered versions
	keyName := func(table, key string) string { return table + "\x00" + key }
	for id, t := range committed {
		seen := map[string]bool{}
		for _, w := range t.writes {
			k := keyName(w.table, w.key)
			if seen[k] {
				continue // one version per transaction per key
			}
			seen[k] = true
			versions[k] = append(versions[k], version{writer: id, commitTS: t.commitTS})
		}
	}
	for _, vs := range versions {
		sort.Slice(vs, func(i, j int) bool { return vs[i].commitTS < vs[j].commitTS })
	}

	addEdge := func(from, to uint64, kind EdgeKind, table, key string) {
		if from == to {
			return
		}
		if g.adj[from] == nil {
			g.adj[from] = make(map[uint64]bool)
		}
		if !g.adj[from][to] {
			g.adj[from][to] = true
			g.Edges = append(g.Edges, Edge{From: from, To: to, Kind: kind, Table: table, Key: key})
		}
	}

	// ww edges: version order.
	for k, vs := range versions {
		table, key, _ := strings.Cut(k, "\x00")
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				addEdge(vs[i].writer, vs[j].writer, WW, table, key)
			}
		}
	}

	// wr and rw edges from point reads.
	for id, t := range committed {
		for _, r := range t.reads {
			k := keyName(r.table, r.key)
			vs := versions[k]
			pos := -1 // read "before all versions"
			switch {
			case r.sawWriter == frozenWriter:
				// A frozen version: its writer's commit preceded the read, so
				// the read saw the version its timestamp selects, the newest
				// committed at or before readTS (at: a locking read's clock
				// reading may be that very commit). If no recorded version
				// is that old, it saw an unrecorded one, as below.
				pos = sort.Search(len(vs), func(i int) bool { return vs[i].commitTS > r.readTS }) - 1
				if pos >= 0 {
					addEdge(vs[pos].writer, id, WR, r.table, r.key)
				}
			case committed[r.sawWriter] != nil:
				// A recorded writer, the reader itself included (addEdge
				// drops the self-edge; rw edges go to the versions after).
				addEdge(r.sawWriter, id, WR, r.table, r.key)
				for i, v := range vs {
					if v.writer == r.sawWriter {
						pos = i
						break
					}
				}
			default:
				// 0, the key was absent; or a writer no History recorded:
				// recovery replayed the version when the database opened,
				// before every recorded transaction. Either way the read
				// comes before all recorded versions.
			}
			if pos >= 0 {
				for _, v := range vs[pos+1:] {
					addEdge(id, v.writer, RW, r.table, r.key)
				}
			} else {
				// Absent read: antidependency on every writer whose
				// version committed after the read point.
				for _, v := range vs {
					if v.commitTS > r.readTS {
						addEdge(id, v.writer, RW, r.table, r.key)
					}
				}
			}
		}
		// Predicate (phantom) edges from scans: a committed version of any
		// key in the scanned range, newer than the scan's read point, is a
		// version the predicate read missed.
		for _, s := range t.scans {
			for k, vs := range versions {
				table, key, _ := strings.Cut(k, "\x00")
				if table != s.table {
					continue
				}
				if key < s.from {
					continue
				}
				if s.to != "" && key >= s.to {
					continue
				}
				for _, v := range vs {
					if v.commitTS > s.readTS {
						addEdge(id, v.writer, RW, table, key)
					}
				}
			}
		}
	}
	return g
}

// Cycle returns a dependency cycle if one exists, as the list of transaction
// IDs along it, or nil if the graph is acyclic (the execution is
// serializable).
func (g *Graph) Cycle() []uint64 {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[uint64]int)
	parent := make(map[uint64]uint64)
	var cycle []uint64

	var dfs func(u uint64) bool
	dfs = func(u uint64) bool {
		color[u] = grey
		// Deterministic order for reproducible cycles.
		next := make([]uint64, 0, len(g.adj[u]))
		for v := range g.adj[u] {
			next = append(next, v)
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		for _, v := range next {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case grey:
				// Found a back edge: unwind u..v.
				cycle = []uint64{v}
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				// Reverse into forward order.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for _, n := range g.Nodes {
		if color[n] == white && dfs(n) {
			return cycle
		}
	}
	return nil
}

// Serializable reports whether the recorded execution is (conflict)
// serializable, returning the offending cycle otherwise.
func (h *History) Serializable() (bool, []uint64) {
	c := h.MVSG().Cycle()
	return c == nil, c
}

// String renders the graph for diagnostics.
func (g *Graph) String() string {
	var b strings.Builder
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "T%d -%s-> T%d (%s/%s)\n", e.From, e.Kind, e.To, e.Table, e.Key)
	}
	return b.String()
}
