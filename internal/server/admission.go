package server

import (
	"sync/atomic"
	"time"
)

// admission is the MPL controller, the server's answer to the paper's §6
// thrashing data: beyond a saturation multiprogramming level, admitting more
// concurrent transactions reduces throughput (lock waits and conflict aborts
// grow faster than useful work), so excess transactions wait in a bounded
// FIFO queue instead of competing inside the engine. Three regimes:
//
//   - a free slot: admitted immediately;
//   - slots full, queue below QueueDepth: wait FIFO up to QueueTimeout
//     (Go's channel send queue is the FIFO — blocked senders are granted in
//     arrival order);
//   - queue full: refuse immediately with ErrQueueFull — at that point the
//     client learns about overload faster by rejection than by waiting, and
//     the queue never grows beyond a bound the operator chose.
//
// A zero MPL disables the controller (every acquire succeeds, and is still
// counted as admitted), which is the "uncapped" baseline the benchmarks
// compare against.
type admission struct {
	slots   chan struct{} // nil = uncapped
	depth   int32         // max queued waiters
	timeout time.Duration // max queue wait

	waiting atomic.Int32

	// Cumulative counters for Stats.
	admitted      atomic.Uint64 // acquisitions granted
	queued        atomic.Uint64 // acquisitions that had to wait
	refusedFull   atomic.Uint64 // ErrQueueFull refusals
	refusedWait   atomic.Uint64 // ErrQueueTimeout refusals
	queueWaitNano atomic.Int64  // total time spent queued
}

func newAdmission(mpl, depth int, timeout time.Duration) *admission {
	a := &admission{timeout: timeout}
	if mpl > 0 {
		a.slots = make(chan struct{}, mpl)
		if depth <= 0 {
			depth = 4 * mpl
		}
		a.depth = int32(depth)
		if a.timeout <= 0 {
			a.timeout = time.Second
		}
	}
	return a
}

// acquire takes one admission slot, queueing up to the deadline. Uncapped,
// it only counts the admission.
func (a *admission) acquire() error {
	if a.slots == nil {
		a.admitted.Add(1)
		return nil
	}
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return nil
	default:
	}
	if a.waiting.Add(1) > a.depth {
		a.waiting.Add(-1)
		a.refusedFull.Add(1)
		return ErrQueueFull
	}
	defer a.waiting.Add(-1)
	a.queued.Add(1)
	start := time.Now()
	timer := time.NewTimer(a.timeout)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		a.queueWaitNano.Add(int64(time.Since(start)))
		return nil
	case <-timer.C:
		a.queueWaitNano.Add(int64(time.Since(start)))
		a.refusedWait.Add(1)
		return ErrQueueTimeout
	}
}

// release returns one slot. Must pair 1:1 with successful acquires.
func (a *admission) release() {
	if a.slots != nil {
		<-a.slots
	}
}

// AdmissionStats is the controller's counter snapshot (part of the server
// stats JSON).
type AdmissionStats struct {
	MPL           int           // configured cap; 0 = uncapped
	InUse         int           // slots currently held
	Waiting       int           // transactions queued right now
	Admitted      uint64        // cumulative admissions
	Queued        uint64        // admissions that waited in the queue
	RefusedFull   uint64        // ErrQueueFull refusals
	RefusedWait   uint64        // ErrQueueTimeout refusals
	QueueWaitTime time.Duration // cumulative queue wait
}

func (a *admission) stats() AdmissionStats {
	st := AdmissionStats{
		Admitted:      a.admitted.Load(),
		Queued:        a.queued.Load(),
		RefusedFull:   a.refusedFull.Load(),
		RefusedWait:   a.refusedWait.Load(),
		QueueWaitTime: time.Duration(a.queueWaitNano.Load()),
		Waiting:       int(a.waiting.Load()),
	}
	if a.slots != nil {
		st.MPL = cap(a.slots)
		st.InUse = len(a.slots)
	}
	return st
}
