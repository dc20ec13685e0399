package lock

import (
	"sync"

	"ssi/internal/core"
)

// This file implements the contended half of AcquireInto (see "Contended path"
// in the package comment): the per-entry FIFO wait queue and the
// direct-handoff grant protocol. A request that outlives its spin registers
// its waits-for edges before it sleeps, so immediate deadlock detection never
// misses a parked cycle; a sweep grants every waiter that is now compatible
// on the waiter's behalf (installing the lock and capturing its rivals under
// the same shard-mutex hold) and signals exactly those waiters.
type waiter struct {
	owner *core.Txn
	os    *ownerState
	e     *entry // the entry queued on, alive while the waiter is queued
	mode  Mode
	// conv marks a conversion: the owner already holds a blocking-relevant
	// mode (Shared or Exclusive) on the entry. Conversions wait on holders
	// only — queueing an upgrade behind a waiter that is itself blocked by
	// the upgrader's held mode would deadlock — and therefore also bypass
	// the no-overtaking rule. Stable while parked: the owner's goroutine is
	// asleep and nothing else can release its blocking modes.
	conv bool

	// edges is the blocker set currently registered for owner in the
	// waits-for graph — the same map the graph holds, kept here so sweeps
	// can compare-and-skip without touching the graph mutex. It is read
	// under the shard mutex of key's shard and mutated only while holding
	// both that shard mutex and the graph mutex, so either mutex alone
	// makes a read safe.
	edges map[*core.Txn]bool

	// Outcome, written under the shard mutex before ready is signalled.
	granted  bool
	deadlock bool
	rivals   []*core.Txn

	// ready carries the single handoff signal (grant or deadlock verdict).
	// Buffered so the signaller never blocks; a waiter receives at most one
	// signal per park because it is dequeued before being signalled.
	ready chan struct{}

	// state tracks the record's lifecycle (waiterFree → waiterOwned ↔
	// waiterQueued) purely so misuse — double-put, double-enqueue, a signal
	// to a recycled record — panics at the corrupting operation instead of
	// surfacing minutes later as a lost wakeup. Transitions happen under
	// the owning goroutine (free↔owned) or the shard mutex (owned↔queued).
	state int8

	prev, next *waiter
}

const (
	waiterFree int8 = iota
	waiterOwned
	waiterQueued
)

var waiterPool = sync.Pool{New: func() any { return &waiter{ready: make(chan struct{}, 1)} }}

func getWaiter() *waiter {
	w := waiterPool.Get().(*waiter)
	if w.state != waiterFree {
		panic("lock: pooled waiter still in use")
	}
	select {
	case <-w.ready:
		panic("lock: pooled waiter had a pending signal")
	default:
	}
	w.state = waiterOwned
	return w
}

// putWaiter returns w to the pool. The ready channel is drained first: a
// grant signal may have raced a timeout and been left pending.
func putWaiter(w *waiter) {
	if w.state != waiterOwned {
		panic("lock: putWaiter on a free or queued waiter")
	}
	select {
	case <-w.ready:
	default:
	}
	w.owner, w.os, w.e = nil, nil, nil
	w.mode, w.conv = 0, false
	w.edges = nil
	w.granted, w.deadlock = false, false
	w.rivals = nil
	w.prev, w.next = nil, nil
	w.state = waiterFree
	waiterPool.Put(w)
}

// signal delivers w's single handoff. The buffer always has room — a waiter
// is dequeued before it is signalled and signalled at most once per park —
// so a full buffer means the record was signalled twice or recycled while
// someone still held a reference; panic rather than silently corrupt the
// handoff protocol.
func (w *waiter) signal() {
	select {
	case w.ready <- struct{}{}:
	default:
		panic("lock: waiter signalled twice")
	}
}

// waitQueue is an intrusive FIFO list of parked waiters, one per entry.
type waitQueue struct {
	head, tail *waiter
	n          int
}

func (q *waitQueue) enqueue(w *waiter) {
	if w.state != waiterOwned {
		panic("lock: enqueue of a free or already-queued waiter")
	}
	w.state = waiterQueued
	w.prev = q.tail
	w.next = nil
	if q.tail != nil {
		q.tail.next = w
	} else {
		q.head = w
	}
	q.tail = w
	q.n++
}

func (q *waitQueue) remove(w *waiter) {
	if w.state != waiterQueued {
		panic("lock: remove of a waiter that is not queued")
	}
	w.state = waiterOwned
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		q.head = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		q.tail = w.prev
	}
	w.prev, w.next = nil, nil
	q.n--
}

// waitSetLocked returns who a request must wait for: every conflicting
// holder, plus — for fresh (non-conversion) requests — the nearest parked
// waiter ahead in the queue whose requested mode conflicts. One queue edge
// suffices for deadlock detection because every parked waiter keeps its own
// edges registered, so cycles close transitively; sweeps recompute the set
// whenever the queue or holder set changes, so the edge never goes stale.
// before bounds the queue scan: the waiter's own record during a sweep, nil
// (the whole queue) for a request that has not parked yet. The returned
// slice is duplicate-free so edge-set comparison can be a length check plus
// membership probes.
func waitSetLocked(e *entry, owner *core.Txn, own, mode Mode, conv bool, before *waiter) []*core.Txn {
	out := blockersLocked(e, owner, own, mode)
	if conv {
		return out
	}
	for w := e.q.head; w != nil && w != before; w = w.next {
		if w.owner == owner || !blocksOn(e.key.Kind, mode, w.mode) {
			continue
		}
		if !containsTxn(out, w.owner) {
			out = append(out, w.owner)
		}
		break // nearest conflicting predecessor only
	}
	return out
}

func containsTxn(ts []*core.Txn, t *core.Txn) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// sweepLocked walks e's wait queue in FIFO order after anything that could
// change who blocks whom (a release of a blocking mode, a grant made while
// waiters are parked, a timed-out withdrawal): it grants and signals every
// waiter that is now unblocked, refreshes the waits-for edges of those that
// remain (skipping the graph entirely when a waiter's blocker set is
// unchanged), and aborts a waiter as deadlock victim if its refreshed edges
// close a cycle. The caller holds the mutex of e's shard; grants made inside
// the sweep are visible to the recomputation of every later waiter,
// preserving FIFO semantics within one pass.
func (m *Manager) sweepLocked(e *entry) {
	s := e.s
	for again := true; again; {
		again = false
		for w := e.q.head; w != nil && !again; {
			next := w.next
			own := e.holders[w.owner]
			ws := waitSetLocked(e, w.owner, own, w.mode, w.conv, w)
			switch {
			case len(ws) == 0:
				e.q.remove(w)
				w.rivals = rivalsInto(e, w.owner, own, w.mode, nil)
				m.grantLocked(w.os, e, w.owner, own, w.mode)
				m.wfg.drop(w)
				w.granted = true
				s.wakeups++
				w.signal()
				// A granted conversion can newly block waiters *earlier*
				// in the queue (e.g. a gap-mode SIREAD holder upgrading to
				// Exclusive past a parked insert intention), which a single
				// forward pass would leave with stale edges; restart so
				// every remaining waiter recomputes against the new holder
				// set. Fresh grants cannot (blocksOn is symmetric: a
				// request that would block a parked waiter would have
				// queued behind it), so only conversions pay the restart.
				// Terminates: each restart follows a dequeue.
				again = w.conv && e.q.head != nil
			case !m.wfg.update(w, ws):
				e.q.remove(w)
				w.deadlock = true
				s.wakeups++
				w.signal()
			}
			w = next
		}
	}
}
