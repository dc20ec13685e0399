// Package interleave is a deterministic scheduler that executes a small set
// of transaction scripts under every possible interleaving of their steps.
// It mechanises the testing methodology of thesis §4.7, which validated the
// InnoDB prototype by generating all interleavings of transaction sets known
// to cause write skew and checking that no non-serializable execution was
// permitted.
//
// Each script runs on its own goroutine; the scheduler releases one step at
// a time according to the schedule under test. A step that blocks (waiting
// for a lock) parks its transaction: its remaining schedule slots first wait
// for the pending step. After the nominal schedule is exhausted, stragglers
// are drained deterministically, so executions with blocking still terminate
// and still produce a *real* history — which the caller then validates with
// package sercheck.
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
	// Blocked reports that some step outlasted the scheduler's wait and
	// forfeited a slot: the execution is real, but no longer the schedule's.
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

// blockTimeout is how long the scheduler waits before declaring a step
// blocked and moving on. Scripts whose operations never contend finish every
// step instantly, so this only costs time when locks actually block.
const blockTimeout = 25 * time.Millisecond

// drainTimeout bounds the final drain of blocked stragglers.
const drainTimeout = 5 * time.Second

type worker struct {
	tx           *ssidb.Txn
	steps        []Step // script steps; commit appended logically
	next         int    // next step index; len(steps) = commit
	pending      bool   // a released step has not completed yet
	done         chan error
	release      chan int
	err          error
	beforeCommit bool // err arrived before any worker had committed
	dead         bool
}

func (w *worker) totalSteps() int { return len(w.steps) + 1 }

// Run executes the scripts under one specific schedule against db (with its
// recorder already attached) and returns the outcome.
func Run(db *ssidb.DB, hist *sercheck.History, iso ssidb.Isolation, scripts []Script, schedule []int) Outcome {
	return run(db, hist, iso, scripts, schedule, blockTimeout)
}

// run is Run with the scheduler's patience as a parameter: a step not back
// within wait counts as blocked on a lock.
func run(db *ssidb.DB, hist *sercheck.History, iso ssidb.Isolation, scripts []Script, schedule []int, wait time.Duration) Outcome {
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

	advance := func(w *worker, patience time.Duration) {
		if w.dead {
			return
		}
		if w.pending {
			select {
			case err := <-w.done:
				w.pending = false
				finish(w, err)
			case <-time.After(patience):
				return // still blocked; its slot is forfeited
			}
			if w.dead {
				return
			}
		}
		if w.next > len(w.steps) {
			w.dead = true
			return
		}
		w.release <- w.next
		w.next++
		select {
		case err := <-w.done:
			finish(w, err)
		case <-time.After(patience):
			w.pending = true
			out.Blocked = true
		}
	}

	for _, slot := range schedule {
		advance(workers[slot], wait)
	}
	// Drain stragglers (blocked steps complete as blockers finish).
	deadline := time.Now().Add(drainTimeout)
	for {
		live := false
		for _, w := range workers {
			if !w.dead {
				live = true
				advance(w, 100*time.Millisecond)
			}
		}
		if !live {
			break
		}
		if time.Now().After(deadline) {
			for _, w := range workers {
				if !w.dead {
					w.err = fmt.Errorf("interleave: script stuck after drain timeout")
					w.dead = true
				}
			}
			break
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
