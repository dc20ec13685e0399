package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"ssi/internal/harness"
	"ssi/ssidb"
)

func isRollback(err error) bool { return errors.Is(err, harness.ErrRollback) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase describes one measured stretch of closed-loop load: windows
// back-to-back windows of winLen each. A transaction is counted in the
// window it ends in.
type phase struct {
	windows int
	winLen  time.Duration
	// mode picks how transactions starting in a window run; nil runs every
	// window untraced at SerializableSI.
	mode func(window int) windowMode
	// atBoundary, when set, is called at every window boundary b (0 before
	// the first window, windows after the last): by worker 0 as it enters
	// window b, so it must be cheap, and by the caller at both ends.
	atBoundary func(b int)
}

// windowMode is how the transactions of one window run.
type windowMode struct {
	iso ssidb.Isolation
	// sampleEvery > 0 traces every sampleEvery-th transaction of each worker.
	sampleEvery int
}

// window aggregates one window over all workers.
type window struct {
	commits, attempts, rollbacks, failed uint64
	cpu                                  time.Duration // process CPU spent during the window
	lat                                  histogram     // begin→commit-ack of committed transactions, retries included
}

func (w *window) add(o *window) {
	w.commits += o.commits
	w.attempts += o.attempts
	w.rollbacks += o.rollbacks
	w.failed += o.failed
	w.lat.merge(&o.lat)
}

// measured is the outcome of one phase.
type measured struct {
	phase
	wins     []window
	total    window // all windows merged
	alloc    uint64 // MemStats.TotalAlloc delta over the phase
	firstErr error  // first non-retryable transaction error, if any
	tracers  []*tracer
}

// perSecond returns each window's commits per second.
func (m *measured) perSecond() []float64 {
	out := make([]float64, len(m.wins))
	for i := range m.wins {
		out[i] = float64(m.wins[i].commits) / m.winLen.Seconds()
	}
	return out
}

// measure drives every client of the instance for the phase and joins them.
func (in *instance) measure(p phase) *measured {
	m := &measured{phase: p, wins: make([]window, p.windows)}
	perWorker := make([][]window, len(in.clients))
	errs := make([]error, len(in.clients))
	for i := range in.clients {
		m.tracers = append(m.tracers, newTracer(i))
	}
	// cpuAt[b] is the process CPU time at boundary b.
	cpuAt := make([]time.Duration, p.windows+1)
	boundary := func(b int) {
		cpuAt[b] = cpuTime()
		if p.atBoundary != nil {
			p.atBoundary(b)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	var wg sync.WaitGroup
	release := make(chan struct{})
	var start time.Time
	for i := range in.clients {
		perWorker[i] = make([]window, p.windows)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, stream, wins, tr := in.clients[i], &in.streams[i], perWorker[i], m.tracers[i]
			<-release
			tr.base = start
			seen := 0 // last boundary worker 0 reported
			for n := 1; ; n++ {
				t0 := time.Now()
				w := int(t0.Sub(start) / p.winLen)
				if w >= p.windows {
					return
				}
				for i == 0 && seen < w {
					seen++
					boundary(seen)
				}
				md := windowMode{iso: ssidb.SerializableSI}
				if p.mode != nil {
					md = p.mode(w)
				}
				var sampled *tracer
				if md.sampleEvery > 0 && n%md.sampleEvery == 0 {
					sampled = tr
					tr.beginTxn(n, t0)
				}
				attempts, err := c.exec(stream.Uint64(), md.iso, sampled)
				t1 := time.Now()
				if sampled != nil {
					tr.endTxn(t1, err == nil)
				}
				win := &wins[min(int(t1.Sub(start)/p.winLen), p.windows-1)]
				win.attempts += uint64(attempts)
				switch {
				case err == nil:
					win.commits++
					win.lat.record(uint64(t1.Sub(t0)))
				case isRollback(err):
					win.rollbacks++
				default:
					win.failed++
					if errs[i] == nil {
						errs[i] = err
					}
				}
			}
		}(i)
	}
	boundary(0)
	start = time.Now()
	close(release)
	wg.Wait()
	// Boundaries worker 0 never crossed (the phase ended first) close now.
	for b := 1; b <= p.windows; b++ {
		if cpuAt[b] == 0 {
			boundary(b)
		}
	}
	runtime.ReadMemStats(&after)
	for w := range m.wins {
		for i := range perWorker {
			m.wins[w].add(&perWorker[i][w])
		}
		m.wins[w].cpu = cpuAt[w+1] - cpuAt[w]
		m.total.add(&m.wins[w])
		m.total.cpu += m.wins[w].cpu
	}
	m.alloc = after.TotalAlloc - before.TotalAlloc
	m.firstErr = errors.Join(errs...)
	return m
}

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Info      map[string]float64 `json:"info,omitempty"` // printed, never gated
	// The per-window values the windowed metrics are computed from, kept so
	// that another estimator can be evaluated on recorded runs.
	Windows   []float64 `json:"windows_commits_per_s,omitempty"`
	WindowP99 []float64 `json:"windows_txn_p99_us,omitempty"`
	WindowCPU []float64 `json:"windows_cpu_us_per_commit,omitempty"`
	WALFS     string    `json:"wal_fs,omitempty"`
	Problems  []string  `json:"problems,omitempty"`
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// windowsFor splits the measured seconds into at least ten windows of at
// most a second: with fewer, the best quarter of them is one lucky window.
func windowsFor(seconds float64) (n int, winLen time.Duration) {
	n = max(10, int(seconds))
	return n, time.Duration(seconds / float64(n) * float64(time.Second))
}

// runUntraced measures the end-to-end metrics of one workload: several
// set-ups (the last one is measured), the windows, then the output checks.
func runUntraced(w *workload, cfg *config) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, Metrics: map[string]float64{}, Info: map[string]float64{}}
	var in *instance
	var setups []float64
	for i := 0; i < cfg.sizes.setups; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
		}
		var took time.Duration
		var err error
		if in, took, err = setUp(w, cfg, nil, w.warmup); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer func() { in.close() }()
	if w.durable {
		res.WALFS = cfg.walFS
	}

	n, winLen := windowsFor(cfg.seconds)
	m := in.measure(phase{windows: n, winLen: winLen})
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	t := &m.total
	res.Attempted = t.commits + t.rollbacks + t.failed
	res.Failed = t.failed
	if m.firstErr != nil {
		res.Problems = append(res.Problems, "transaction error: "+m.firstErr.Error())
	}
	if t.commits == 0 {
		res.fail("no transaction committed")
		return res, nil
	}
	var p99s, cpus []float64
	for i := range m.wins {
		c := m.wins[i].commits
		if c == 0 {
			continue
		}
		p99s = append(p99s, m.wins[i].lat.quantile(0.99)/1e3)
		// A window worker 0 spent inside a single transaction has no CPU
		// sample of its own; it must not pass for the cheapest window.
		if cpu := m.wins[i].cpu; cpu > 0 {
			cpus = append(cpus, float64(cpu.Microseconds())/float64(c))
		}
	}
	if len(cpus) == 0 {
		cpus = []float64{float64(t.cpu.Microseconds()) / float64(t.commits)}
	}
	res.Windows, res.WindowP99, res.WindowCPU = m.perSecond(), p99s, cpus
	res.Metrics["commits_per_s"] = bestQuarter(res.Windows, true)
	res.Metrics["txn_p99_us"] = bestQuarter(p99s, false)
	res.Metrics["attempts_per_commit"] = float64(t.attempts-t.rollbacks-t.failed) / float64(t.commits)
	res.Metrics["cpu_us_per_commit"] = bestQuarter(cpus, false)
	res.Metrics["alloc_bytes_per_commit"] = float64(m.alloc) / float64(t.commits)
	res.Metrics["live_heap_mib"] = float64(ms.HeapAlloc) / (1 << 20)
	res.Metrics["setup_s"] = median(setups)

	res.Info["commits_per_s_median_window"] = median(res.Windows)
	res.Info["txn_p99_us_median_window"] = median(p99s)
	res.Info["latency_samples"] = float64(t.lat.n)
	res.Info["txn_p50_us"] = t.lat.quantile(0.50) / 1e3
	res.Info["txn_p99_pooled_us"] = t.lat.quantile(0.99) / 1e3
	res.Info["txn_p99.9_us"] = t.lat.quantile(0.999) / 1e3
	res.Info["txn_max_us"] = float64(t.lat.max) / 1e3
	res.Info["rollbacks"] = float64(t.rollbacks)
	res.Info["cpus_busy"] = t.cpu.Seconds() / (float64(n) * winLen.Seconds())

	if w.durable {
		checkRecovery(in, cfg, res)
	}
	if err := in.close(); err != nil {
		res.fail("tear-down: %v", err)
	}
	checkSerializable(w, cfg, res)
	res.Correct = res.Failed == 0
	return res, nil
}
