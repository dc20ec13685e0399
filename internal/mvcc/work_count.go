//go:build workcount

package mvcc

import (
	"sync"
	"sync/atomic"
)

// Work is what the row store did since the process started, counted in the
// workcount build only: partition-latch holds, shared and exclusive apart;
// the versions readChain walked and a claim looked at — a point read's, a
// scanned row's and a write's head, one per version visited; and the reader
// words ReadAs set (Registrations) and a write or a Pruner cleared (Clears).
type Work struct {
	SharedLatches    uint64
	ExclusiveLatches uint64
	VersionsWalked   uint64
	Registrations    uint64
	Clears           uint64
}

var sharedLatches, exclusiveLatches, versionsWalked, registrations, clears atomic.Uint64

// latch is a partition's reader-writer latch, counting its holds.
type latch struct{ sync.RWMutex }

func (l *latch) Lock() {
	exclusiveLatches.Add(1)
	l.RWMutex.Lock()
}

func (l *latch) RLock() {
	sharedLatches.Add(1)
	l.RWMutex.RLock()
}

func noteVersion()  { versionsWalked.Add(1) }
func noteRegister() { registrations.Add(1) }
func noteClear()    { clears.Add(1) }

// ReadWork returns the counters; a caller measures a span of work as the
// difference of two reads.
func ReadWork() Work {
	return Work{sharedLatches.Load(), exclusiveLatches.Load(), versionsWalked.Load(), registrations.Load(), clears.Load()}
}

// Sub returns the work done between an earlier read u and w.
func (w Work) Sub(u Work) Work {
	return Work{
		SharedLatches:    w.SharedLatches - u.SharedLatches,
		ExclusiveLatches: w.ExclusiveLatches - u.ExclusiveLatches,
		VersionsWalked:   w.VersionsWalked - u.VersionsWalked,
		Registrations:    w.Registrations - u.Registrations,
		Clears:           w.Clears - u.Clears,
	}
}
