package lock

import (
	"sync"
	"sync/atomic"

	"ssi/internal/core"
)

// waitGraph is the waits-for graph used for immediate deadlock detection.
//
// The lock table is hash-striped into shards, but a deadlock cycle can span
// shards (T1 waits on a key in shard A held by T2, which waits on a key in
// shard B held by T1), so the graph is a single component with its own
// mutex rather than per-shard state. Registration is deferred until a
// request actually parks (the spin phase of AcquireInto touches nothing
// global): a parking waiter registers its edges while still holding its
// shard's mutex, so the blocker set cannot go stale, and the registration
// either finds a cycle through the waiter (the waiter aborts as the
// deadlock victim) or records the wait before the waiter sleeps. Because
// the graph mutex serialises every registration and search, two
// transactions closing a cycle from different shards cannot both miss it:
// whichever registers second sees the other's edges.
//
// While a waiter is parked, the sweeps that grant from its entry's queue
// keep its edges current (update); the edge-set map lives on the waiter
// record as well as in the graph, so a sweep can compare the recomputed
// blocker set against the registered one under the shard mutex alone and
// skip the graph mutex entirely when nothing changed — the common case for
// a herd of waiters parked behind one holder. Edge maps are pooled: a herd
// wakeup must not allocate one map per waiter per release.
//
// Lock ordering: shard mutex → graph mutex. The graph never calls back
// into the lock table, and the uncontended AcquireInto fast path never touches
// the graph at all.
type waitGraph struct {
	mu    sync.Mutex
	edges map[*core.Txn]map[*core.Txn]bool

	// locks counts graph-mutex acquisitions; tests use it to pin that herd
	// wakeups and unchanged-blocker sweeps stay off the global mutex.
	locks atomic.Uint64
}

func newWaitGraph() *waitGraph {
	return &waitGraph{edges: make(map[*core.Txn]map[*core.Txn]bool)}
}

// edgeSetPool recycles blocker-set maps across park episodes.
var edgeSetPool = sync.Pool{New: func() any { return make(map[*core.Txn]bool, 4) }}

func (g *waitGraph) lock() {
	g.locks.Add(1)
	g.mu.Lock()
}

// register records the parking waiter's wait edges and reports whether the
// wait is safe; false means waiting would close a cycle through w.owner,
// which must abort with core.ErrDeadlock instead of parking (set).
func (g *waitGraph) register(w *waiter, blockers []*core.Txn) bool {
	return g.set(w, edgeSetPool.Get().(map[*core.Txn]bool), blockers)
}

// update replaces a parked waiter's registered edges with blockers and
// reports whether the wait is still safe; false means the new edges closed
// a cycle through w.owner (which has been deregistered — the caller must
// wake w as the deadlock victim). When the blocker set is unchanged the
// graph mutex is not taken at all. The caller holds the shard mutex of w's
// key, which is what makes reading w.edges here race-free (see waiter).
func (g *waitGraph) update(w *waiter, blockers []*core.Txn) bool {
	return sameEdgeSet(w.edges, blockers) || g.set(w, w.edges, blockers)
}

// set installs blockers as w.owner's edges, in es — a pooled map at
// registration, the waiter's own at an update — and searches for a cycle
// through w.owner. Found, it removes the edges again, pools es and reports
// false, leaving w with none; otherwise w.edges is es, the map the graph
// holds, so later sweeps can compare against it.
func (g *waitGraph) set(w *waiter, es map[*core.Txn]bool, blockers []*core.Txn) bool {
	g.lock()
	clear(es)
	for _, b := range blockers {
		es[b] = true
	}
	g.edges[w.owner] = es
	ok := !g.cycleLocked(w.owner)
	if !ok {
		delete(g.edges, w.owner)
	}
	g.mu.Unlock()
	if !ok {
		clear(es)
		edgeSetPool.Put(es)
		es = nil
	}
	w.edges = es
	return ok
}

// drop removes a waiter's edges after its request was granted or withdrawn
// (timeout). A no-op if the edges are already gone (deadlock victim).
func (g *waitGraph) drop(w *waiter) {
	if w.edges == nil {
		return
	}
	g.lock()
	delete(g.edges, w.owner)
	g.mu.Unlock()
	clear(w.edges)
	edgeSetPool.Put(w.edges)
	w.edges = nil
}

// sameEdgeSet reports whether blockers (duplicate-free) equals the
// registered set es.
func sameEdgeSet(es map[*core.Txn]bool, blockers []*core.Txn) bool {
	if len(es) != len(blockers) {
		return false
	}
	for _, b := range blockers {
		if !es[b] {
			return false
		}
	}
	return true
}

// cycleLocked reports whether the graph contains a cycle through start,
// by depth-first search over the current wait edges.
func (g *waitGraph) cycleLocked(start *core.Txn) bool {
	seen := map[*core.Txn]bool{}
	var dfs func(t *core.Txn) bool
	dfs = func(t *core.Txn) bool {
		for next := range g.edges[t] {
			if next == start {
				return true
			}
			if !seen[next] {
				seen[next] = true
				if dfs(next) {
					return true
				}
			}
		}
		return false
	}
	return dfs(start)
}
