//go:build workcount

package btree

import "sync/atomic"

// derefs records, in the workcount build only, the address of every stored
// key read since it was last emptied. Single-threaded tests only.
var derefs []*byte

func noteDeref(p *byte) { derefs = append(derefs, p) }

// Work is what the trees did since the process started, counted in the
// workcount build only: descents from a root — one per lookup (Get, Lookup,
// AppendPathPages, which plans an insert in the same walk: its verdict reads
// the leaf the path ends at), per insert and per iterator or successor seek
// (IterFrom, IterAfter, Successor) — and the pages they entered, root and leaf
// included.
type Work struct {
	Descents uint64
	Nodes    uint64
}

var descents, nodes atomic.Uint64

func noteDescent() { descents.Add(1) }
func noteNode()    { nodes.Add(1) }

// ReadWork returns the counters; a caller measures a span of work as the
// difference of two reads.
func ReadWork() Work { return Work{Descents: descents.Load(), Nodes: nodes.Load()} }

// Sub returns the work done between an earlier read u and w.
func (w Work) Sub(u Work) Work {
	return Work{Descents: w.Descents - u.Descents, Nodes: w.Nodes - u.Nodes}
}
