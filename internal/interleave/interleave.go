// Package interleave is a deterministic scheduler that executes a small set
// of transaction scripts under every possible interleaving of their steps.
// It mechanises the testing methodology of thesis §4.7, which validated the
// InnoDB prototype by generating all interleavings of transaction sets known
// to cause write skew and checking that no non-serializable execution was
// permitted.
//
// Each script runs on its own goroutine; the scheduler releases one step at
// a time according to the schedule under test, and waits for it to finish or
// to park in the lock table. A step is blocked when every step in flight is
// parked there — an observation of the lock table, never a timeout — and its
// remaining schedule slots first wait for the pending step. After the nominal
// schedule is exhausted, stragglers are drained deterministically, so
// executions with blocking still terminate and still produce a *real*
// history — which the caller then validates with package sercheck.
package interleave

import (
	"fmt"
	"time"

	"ssi/internal/sercheck"
	"ssi/ssidb"
)

// Step is one operation of a transaction script.
type Step func(tx *ssidb.Txn) error

// Script is a transaction program: its steps run in order, followed by an
// implicit commit.
type Script struct {
	Name  string
	Steps []Step
	// ReadOnly runs the script as a declared read-only transaction
	// (ssidb.BeginTx with TxnOptions.ReadOnly), enabling the SSI read-only
	// optimisations. Write steps then fail with ssidb.ErrReadOnly.
	ReadOnly bool
}

// Outcome reports one interleaving's execution.
type Outcome struct {
	// Schedule is the interleaving executed: a sequence of script indices;
	// each occurrence of index i releases script i's next step (the final
	// occurrence is its commit).
	Schedule []int
	// Errs has one entry per script: nil if it committed, otherwise the
	// error that ended it.
	Errs []error
	// BeforeCommit has one entry per script: true if it ended in an error at
	// a moment when no script of the run had committed yet.
	BeforeCommit []bool
	// Blocked reports that some step parked in the lock table and forfeited
	// a slot: the execution is real, but no longer the schedule's.
	Blocked bool
	// History is the recorded execution for MVSG checking.
	History *sercheck.History
	// DB is the database after the run, for state assertions.
	DB *ssidb.DB
}

// Committed returns how many scripts committed.
func (o Outcome) Committed() int {
	n := 0
	for _, err := range o.Errs {
		if err == nil {
			n++
		}
	}
	return n
}

// String renders the schedule compactly, e.g. "012012".
func (o Outcome) String() string {
	s := ""
	for _, i := range o.Schedule {
		s += fmt.Sprint(i)
	}
	return s
}

// Schedules enumerates every interleaving of n scripts where script i
// contributes counts[i] steps. The result has multinomial(counts) entries.
func Schedules(counts []int) [][]int {
	total := 0
	for _, c := range counts {
		total += c
	}
	remaining := make([]int, len(counts))
	copy(remaining, counts)
	var out [][]int
	cur := make([]int, 0, total)
	var rec func()
	rec = func() {
		if len(cur) == total {
			s := make([]int, total)
			copy(s, cur)
			out = append(out, s)
			return
		}
		for i := range remaining {
			if remaining[i] == 0 {
				continue
			}
			remaining[i]--
			cur = append(cur, i)
			rec()
			cur = cur[:len(cur)-1]
			remaining[i]++
		}
	}
	rec()
	return out
}

// stuckAfter bounds a whole run. Every step finishes or parks in the lock
// table, where deadlock detection ends any wait no step can end, so a run that
// outlasts it is a bug (a wait elsewhere, a lost wakeup): Run panics.
const stuckAfter = time.Minute

// pollEvery is how often a step's result is looked for while other steps may
// park; it decides how soon the scheduler sees a park, never whether.
const pollEvery = 100 * time.Microsecond

type worker struct {
	tx           *ssidb.Txn
	steps        []Step // script steps; commit appended logically
	next         int    // next step index; len(steps) = commit
	pending      bool   // a released step has not been collected yet
	done         chan error
	release      chan int
	err          error
	beforeCommit bool // err arrived before any worker had committed
	dead         bool
}

// parked returns how many requests sleep in db's lock table, or 0 if it cannot
// tell: the counters are summed shard by shard, so only two snapshots that
// agree make a consistent cut (each counter only grows).
func parked(db *ssidb.DB) uint64 {
	a, b := db.StatsSnapshot(), db.StatsSnapshot()
	if a.LockParks != b.LockParks || a.LockWakeups != b.LockWakeups || a.LockTimeouts != b.LockTimeouts {
		return 0
	}
	return a.LockParks - a.LockWakeups - a.LockTimeouts
}

// Run executes the scripts under one specific schedule against db (with its
// recorder already attached) and returns the outcome.
func Run(db *ssidb.DB, hist *sercheck.History, iso ssidb.Isolation, scripts []Script, schedule []int) Outcome {
	out := Outcome{Schedule: schedule, History: hist, DB: db}
	commits := 0
	workers := make([]*worker, len(scripts))
	for i, s := range scripts {
		w := &worker{
			tx:      db.BeginTx(iso, ssidb.TxnOptions{ReadOnly: s.ReadOnly}),
			steps:   s.Steps,
			done:    make(chan error, 1),
			release: make(chan int, 1),
		}
		workers[i] = w
		go func() {
			for idx := range w.release {
				var err error
				if idx == len(w.steps) {
					err = w.tx.Commit()
				} else {
					err = w.steps[idx](w.tx)
				}
				w.done <- err
			}
		}()
	}
	defer func() {
		for _, w := range workers {
			close(w.release)
		}
	}()

	finish := func(w *worker, err error) {
		w.pending = false
		if err != nil {
			w.err = err
			w.beforeCommit = commits == 0
			w.dead = true
			w.tx.Abort() // idempotent; cleans up app-level errors too
		} else if w.next > len(w.steps) {
			commits++
			w.dead = true
		}
	}

	// collect waits for w's pending step and finishes it, or reports false
	// once every step in flight — w's and any other released step not yet
	// back — is parked in the lock table: none of them can finish before
	// another script's next step runs.
	deadline := time.Now().Add(stuckAfter)
	collect := func(w *worker) bool {
		for {
			select {
			case err := <-w.done:
				finish(w, err)
				return true
			case <-time.After(pollEvery):
			}
			if time.Now().After(deadline) {
				panic(fmt.Sprintf("interleave: schedule %v: steps still running after %v", schedule, stuckAfter))
			}
			inFlight := uint64(1) // w, whether or not its result just came
			for _, v := range workers {
				if v != w && v.pending && len(v.done) == 0 {
					inFlight++
				}
			}
			if parked(db) >= inFlight {
				return false
			}
		}
	}

	advance := func(w *worker) {
		if w.pending && !collect(w) || w.dead {
			return // a still-parked step forfeits its slot
		}
		if w.next > len(w.steps) {
			w.dead = true
			return
		}
		w.release <- w.next
		w.next++
		w.pending = true
		if !collect(w) {
			out.Blocked = true
		}
	}

	for _, slot := range schedule {
		advance(workers[slot])
	}
	// Drain stragglers (blocked steps complete as blockers finish).
	for live := true; live; {
		live = false
		for _, w := range workers {
			if !w.dead {
				live = true
				advance(w)
			}
		}
	}

	for _, w := range workers {
		out.Errs = append(out.Errs, w.err)
		out.BeforeCommit = append(out.BeforeCommit, w.beforeCommit)
	}
	return out
}

// Explore runs every interleaving of the scripts at the given isolation
// level, creating a fresh database via mkDB for each, and calls check with
// each outcome.
func Explore(mkDB func() (*ssidb.DB, *sercheck.History), iso ssidb.Isolation, scripts []Script, check func(Outcome)) {
	counts := make([]int, len(scripts))
	for i, s := range scripts {
		counts[i] = len(s.Steps) + 1 // + commit
	}
	for _, schedule := range Schedules(counts) {
		db, hist := mkDB()
		check(Run(db, hist, iso, scripts, schedule))
	}
}
