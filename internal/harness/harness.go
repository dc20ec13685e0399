// Package harness is the one closed-loop measurement of this repository
// outside benchmark/: it runs a workload at a given multiprogramming level
// (MPL) for a fixed duration, as the performance experiments of thesis
// Chapter 6 do, and reports one Result per cell — committed transactions per
// second (with a 95% confidence interval over repeated trials), the abort
// breakdown the paper plots (deadlocks, First-Committer-Wins update
// conflicts, Serializable SI "unsafe" errors; Figure 6.1(b) and friends), the
// commit-latency percentiles, and the increase of the engine's counters.
//
// One rule covers everything a Result counts: it belongs to the measured
// windows. A transaction is tallied if it began inside a window, the counters
// are read at each window's two edges, and with several trials every number
// is the sum over all of their windows — so any two of them may be divided.
package harness

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ssi/ssidb"
)

// TxnFunc executes one application transaction (including commit) and
// returns its outcome. The supplied rand is private to the calling worker.
type TxnFunc func(r *rand.Rand) error

// Counts is the per-class outcome tally of one run.
type Counts struct {
	Commits   uint64
	Deadlocks uint64 // lock-wait cycles (mostly S2PL)
	Conflicts uint64 // First-Committer-Wins update conflicts
	Unsafe    uint64 // Serializable SI dangerous-structure aborts
	Timeouts  uint64 // lock waits abandoned via Options.LockWaitTimeout
	Rollbacks uint64 // application-initiated aborts (e.g. TPC-C's 1%)
	Other     uint64
}

func (c *Counts) add(err error) {
	switch {
	case err == nil:
		atomic.AddUint64(&c.Commits, 1)
	case errors.Is(err, ssidb.ErrDeadlock):
		atomic.AddUint64(&c.Deadlocks, 1)
	case errors.Is(err, ssidb.ErrWriteConflict):
		atomic.AddUint64(&c.Conflicts, 1)
	case errors.Is(err, ssidb.ErrUnsafe):
		atomic.AddUint64(&c.Unsafe, 1)
	case errors.Is(err, ssidb.ErrLockTimeout):
		atomic.AddUint64(&c.Timeouts, 1)
	case errors.Is(err, ErrRollback):
		atomic.AddUint64(&c.Rollbacks, 1)
	default:
		atomic.AddUint64(&c.Other, 1)
	}
}

// ErrRollback marks an application-initiated rollback (counted separately
// from concurrency-control aborts, like TPC-C's intentional 1%).
var ErrRollback = errors.New("harness: application rollback")

// Window is the set of cumulative counters read at the edges of a measured
// window: the engine's, and what a client of a remote server adds to them
// (its own retries and the server's admission controller).
type Window struct {
	ssidb.Stats
	Retries       uint64        // client-side retries of retryable errors
	Admitted      uint64        // transactions the server admitted
	RefusedFull   uint64        // refused: admission queue full
	RefusedWait   uint64        // refused: admission queue wait timed out
	QueueWaitTime time.Duration // cumulative admission queue wait
	AdmissionMPL  int           // the server's admission cap (0: uncapped)
}

// accumulate adds the window that began at before and ended at after to acc:
// a cumulative counter (unsigned, or a duration) adds its increase; anything
// else — gauges, flags, text — keeps its latest value.
func accumulate(acc, before, after reflect.Value) {
	for i := 0; i < acc.NumField(); i++ {
		a, b, c := acc.Field(i), before.Field(i), after.Field(i)
		switch a.Kind() {
		case reflect.Struct:
			accumulate(a, b, c)
		case reflect.Uint64:
			a.SetUint(a.Uint() + c.Uint() - b.Uint())
		case reflect.Int64:
			a.SetInt(a.Int() + c.Int() - b.Int())
		default:
			a.Set(c)
		}
	}
}

// Latency summarises the sampled durations of committed transactions.
type Latency struct {
	P50, P99, P999, Max time.Duration
	// Dropped counts commits that found their worker's sample buffer full:
	// the percentiles then cover only the start of each window.
	Dropped uint64 `json:",omitempty"`
}

// maxSamples bounds the latency samples of one Run (8 MB), shared evenly
// among its workers.
const maxSamples = 1 << 20

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// Result is one measured cell. Row, Iso, Shards and Durable are the cell's
// coordinates, filled in by whoever crossed the axes; the rest is measured.
type Result struct {
	Row     string `json:",omitempty"`
	Iso     string `json:",omitempty"`
	MPL     int
	Shards  int  `json:",omitempty"`
	Durable bool `json:",omitempty"`
	Elapsed time.Duration
	Counts
	// TPS is committed transactions per second; TPSCI95 the half-width of
	// its 95% confidence interval over trials (0 with a single trial).
	TPS     float64
	TPSCI95 float64
	// Aux is the number of auxiliary workers (Options.Aux), AuxCommits their
	// committed transactions and AuxTime the time those took.
	Aux        int           `json:",omitempty"`
	AuxCommits uint64        `json:",omitempty"`
	AuxTime    time.Duration `json:",omitempty"`
	Latency    Latency
	Stats      Window
}

// Options configures a measurement.
type Options struct {
	MPL int
	// Aux workers run beside the MPL measured ones, as worker indexes
	// 0..Aux-1: load the measured transactions have to live with (a scanner
	// beside writers), tallied apart from them.
	Aux      int
	Duration time.Duration
	Warmup   time.Duration
	Trials   int // default 1
	Seed     int64
	// Stats, if set, reads the cumulative counters; Run calls it as each
	// window opens and closes.
	Stats func() Window
}

// Every gives all workers the same transaction function.
func Every(fn TxnFunc) func(worker int) TxnFunc {
	return func(int) TxnFunc { return fn }
}

// Run measures fn on every worker; see RunWorkers.
func Run(fn TxnFunc, opts Options) Result { return RunWorkers(Every(fn), opts) }

// RunWorkers measures the transaction functions worker returns for the
// indexes 0..Aux+MPL-1. Each worker loops, executing transactions
// back-to-back with no think time, exactly as the paper's db_perf setup
// (§6.1). Aborted transactions are counted and the worker moves on (the
// retry, if any, is the workload's next iteration).
func RunWorkers(worker func(w int) TxnFunc, opts Options) Result {
	opts.MPL, opts.Trials = max(opts.MPL, 1), max(opts.Trials, 1)
	res := Result{MPL: opts.MPL, Aux: opts.Aux}
	var tps []float64
	var samples []time.Duration
	for trial := 0; trial < opts.Trials; trial++ {
		commits, elapsed := res.Commits, res.Elapsed
		samples = append(samples, runOnce(worker, opts, int64(trial), &res)...)
		tps = append(tps, float64(res.Commits-commits)/(res.Elapsed-elapsed).Seconds())
	}
	res.TPS, res.TPSCI95 = meanCI95(tps)
	// A ratio of two counters is not itself one: recompute it for the windows.
	res.Stats.AvgBatchSize = float64(res.Stats.WALAppends) / float64(max(res.Stats.GroupCommitBatches, 1))
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	res.Latency.P50, res.Latency.P99 = percentile(samples, 0.50), percentile(samples, 0.99)
	res.Latency.P999, res.Latency.Max = percentile(samples, 0.999), percentile(samples, 1)
	return res
}

// runOnce adds one warmup and one window to res and returns the window's
// latency samples.
func runOnce(worker func(int) TxnFunc, opts Options, trial int64, res *Result) []time.Duration {
	workers := opts.Aux + opts.MPL
	var measuring, stop atomic.Bool
	var mu sync.Mutex
	var samples []time.Duration
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn := worker(w)
			r := rand.New(rand.NewSource(opts.Seed + trial*1000003 + int64(w)*7919 + 1))
			buf := make([]time.Duration, 0, maxSamples/workers)
			// One clock read per transaction: each begins where the last ended.
			for start := time.Now(); !stop.Load(); {
				in := measuring.Load()
				err := fn(r)
				end := time.Now()
				took := end.Sub(start)
				start = end
				switch {
				case !in:
				case w >= opts.Aux:
					res.Counts.add(err)
					if err == nil && len(buf) < cap(buf) {
						buf = append(buf, took)
					} else if err == nil {
						atomic.AddUint64(&res.Latency.Dropped, 1)
					}
				case err == nil:
					atomic.AddUint64(&res.AuxCommits, 1)
					atomic.AddInt64((*int64)(&res.AuxTime), int64(took))
				}
			}
			mu.Lock()
			samples = append(samples, buf...)
			mu.Unlock()
		}(w)
	}
	time.Sleep(opts.Warmup)
	var before Window
	if opts.Stats != nil {
		before = opts.Stats()
	}
	start := time.Now()
	measuring.Store(true)
	time.Sleep(opts.Duration)
	measuring.Store(false)
	res.Elapsed += time.Since(start)
	if opts.Stats != nil {
		accumulate(reflect.ValueOf(&res.Stats).Elem(), reflect.ValueOf(before), reflect.ValueOf(opts.Stats()))
	}
	stop.Store(true)
	wg.Wait()
	return samples
}

// meanCI95 returns the mean of xs and the half-width of its 95% confidence
// interval assuming normally distributed samples, as the paper's graphs do
// (§6.1.1); the interval of a single sample is 0.
func meanCI95(xs []float64) (m, ci float64) {
	n := float64(len(xs))
	for _, x := range xs {
		m += x / n
	}
	if len(xs) < 2 {
		return m, 0
	}
	ss := 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return m, 1.96 * math.Sqrt(ss/(n-1)) / math.Sqrt(n)
}
