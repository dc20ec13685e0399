//go:build workcount

package core

import "sync/atomic"

// Work is what the conflict core did since the process started, counted in
// the workcount build only: MarkConflict calls (whatever they decide), and
// retirement-queue entries queued by FinishWith and drained to the retire
// hook.
type Work struct {
	Marks   uint64
	Queued  uint64
	Drained uint64
}

var marks, queued, drained atomic.Uint64

func noteMark()         { marks.Add(1) }
func noteQueued()       { queued.Add(1) }
func noteDrained(n int) { drained.Add(uint64(n)) }

// ReadWork returns the counters; a caller measures a span of work as the
// difference of two reads.
func ReadWork() Work {
	return Work{Marks: marks.Load(), Queued: queued.Load(), Drained: drained.Load()}
}

// Sub returns the work done between an earlier read u and w.
func (w Work) Sub(u Work) Work {
	return Work{Marks: w.Marks - u.Marks, Queued: w.Queued - u.Queued, Drained: w.Drained - u.Drained}
}
