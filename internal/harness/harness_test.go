package harness

import (
	"bytes"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ssi/ssidb"
)

func TestCountsClassification(t *testing.T) {
	var c Counts
	c.add(nil)
	c.add(ssidb.ErrDeadlock)
	c.add(ssidb.ErrWriteConflict)
	c.add(ssidb.ErrUnsafe)
	c.add(ErrRollback)
	c.add(errors.New("something else"))
	if c.Commits != 1 || c.Deadlocks != 1 || c.Conflicts != 1 || c.Unsafe != 1 || c.Rollbacks != 1 || c.Other != 1 {
		t.Fatalf("classification wrong: %+v", c)
	}
	// Wrapped errors classify by errors.Is.
	var c2 Counts
	c2.add(errors.Join(errors.New("ctx"), ssidb.ErrUnsafe))
	if c2.Unsafe != 1 {
		t.Fatalf("wrapped unsafe not classified: %+v", c2)
	}
}

func TestRunCountsCommitsAndErrors(t *testing.T) {
	n := 0
	fn := func(r *rand.Rand) error {
		n++
		if n%5 == 0 {
			return ssidb.ErrWriteConflict
		}
		return nil
	}
	res := Run(fn, Options{MPL: 1, Duration: 30 * time.Millisecond})
	if res.Commits == 0 || res.Conflicts == 0 {
		t.Fatalf("res = %+v", res)
	}
	if res.TPS <= 0 {
		t.Fatalf("TPS = %v", res.TPS)
	}
	ratio := float64(res.Conflicts) / float64(res.Commits)
	if ratio < 0.15 || ratio > 0.40 { // expect ~1/4
		t.Fatalf("conflict ratio %.2f, want ~0.25", ratio)
	}
	if res.Latency.Dropped != 0 || res.Latency.P50 <= 0 || res.Latency.Max < res.Latency.P99 {
		t.Fatalf("latency %+v for %d commits", res.Latency, res.Commits)
	}
}

func TestRunUsesAllWorkers(t *testing.T) {
	seen := make(chan int64, 1024)
	fn := func(r *rand.Rand) error {
		select {
		case seen <- r.Int63():
		default:
		}
		time.Sleep(time.Millisecond)
		return nil
	}
	Run(fn, Options{MPL: 8, Duration: 50 * time.Millisecond})
	close(seen)
	distinct := map[int64]bool{}
	for v := range seen {
		distinct[v] = true
	}
	// Each worker has its own seeded stream; with 8 workers we expect many
	// distinct first draws.
	if len(distinct) < 4 {
		t.Fatalf("only %d distinct streams; MPL not applied?", len(distinct))
	}
}

// TestWarmupExcluded: no transaction that began before the window opened is
// counted. The window opens with the Stats call, which here waits until the
// worker has begun one transaction, so at least one began in the warmup
// however the worker is scheduled; each transaction notes whether the window
// had opened when it began.
func TestWarmupExcluded(t *testing.T) {
	var total, warm atomic.Uint64
	var opened atomic.Bool
	began := make(chan struct{}, 1)
	fn := func(r *rand.Rand) error {
		if !opened.Load() {
			warm.Add(1)
		}
		total.Add(1)
		select {
		case began <- struct{}{}:
		default:
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	}
	res := Run(fn, Options{MPL: 1, Duration: 30 * time.Millisecond, Warmup: 30 * time.Millisecond,
		Stats: func() Window {
			if !opened.Load() {
				<-began
				opened.Store(true)
			}
			return Window{}
		}})
	if warm.Load() == 0 || res.Commits+warm.Load() > total.Load() {
		t.Fatalf("warmup iterations counted: commits=%d, %d of %d began before the window", res.Commits, warm.Load(), total.Load())
	}
}

func TestTrialsProduceConfidenceInterval(t *testing.T) {
	fn := func(r *rand.Rand) error { return nil }
	res := Run(fn, Options{MPL: 2, Duration: 10 * time.Millisecond, Trials: 3})
	if res.TPSCI95 < 0 {
		t.Fatalf("negative CI: %v", res.TPSCI95)
	}
	if res.Elapsed < 30*time.Millisecond {
		t.Fatalf("elapsed %v, want >= 3 trials' worth", res.Elapsed)
	}
}

func TestCI95(t *testing.T) {
	if m, c := meanCI95([]float64{5}); m != 5 || c != 0 {
		t.Fatalf("single sample: mean %v, CI %v", m, c)
	}
	if m, c := meanCI95([]float64{10, 10, 10}); m != 10 || c != 0 {
		t.Fatalf("zero variance: mean %v, CI %v", m, c)
	}
	if m, c := meanCI95([]float64{8, 10, 12}); m != 10 || c <= 0 || c > 10 {
		t.Fatalf("mean %v, CI %v", m, c)
	}
}

// TestWindowsCoverTheSameTransactions is the one rule of the runner: the
// counters and the counts describe the same windows. The fake engine bumps a
// cumulative counter and a gauge with every commit, warmup included; over
// three trials the counter's increase must match the commits tallied — not
// the last trial's third of them, and not the warmups' surplus — while the
// gauge keeps its latest reading.
func TestWindowsCoverTheSameTransactions(t *testing.T) {
	var appends atomic.Uint64
	fn := func(r *rand.Rand) error {
		appends.Add(1)
		time.Sleep(50 * time.Microsecond)
		return nil
	}
	const mpl = 2
	res := Run(fn, Options{MPL: mpl, Duration: 20 * time.Millisecond, Warmup: 10 * time.Millisecond, Trials: 3,
		Stats: func() Window {
			n := appends.Load()
			return Window{Stats: ssidb.Stats{WALAppends: n, GroupCommitBatches: n / 2, LockedKeys: int(n)}, Retries: n}
		}})
	// Per window, at most one transaction per worker straddles each edge.
	slack := uint64(3 * 2 * mpl)
	for name, got := range map[string]uint64{"WALAppends": res.Stats.WALAppends, "Retries": res.Stats.Retries} {
		if got+slack < res.Commits || got > res.Commits+slack {
			t.Errorf("%s rose by %d over windows that committed %d", name, got, res.Commits)
		}
	}
	if res.Stats.AvgBatchSize < 1.9 || res.Stats.AvgBatchSize > 2.1 {
		t.Errorf("AvgBatchSize = %.2f, want the windows' appends per batch (2)", res.Stats.AvgBatchSize)
	}
	if total := int(appends.Load()); res.Stats.LockedKeys <= int(res.Commits) || res.Stats.LockedKeys > total {
		t.Errorf("gauge LockedKeys = %d, want its reading at the last window's end (above %d commits, at most %d)",
			res.Stats.LockedKeys, res.Commits, total)
	}
}

func TestAuxWorkersTalliedApart(t *testing.T) {
	var seen [3]atomic.Uint64
	res := RunWorkers(func(w int) TxnFunc {
		return func(r *rand.Rand) error {
			seen[w].Add(1)
			if w == 0 {
				time.Sleep(time.Millisecond)
			}
			return nil
		}
	}, Options{MPL: 2, Aux: 1, Duration: 30 * time.Millisecond})
	for w := range seen {
		if seen[w].Load() == 0 {
			t.Fatalf("worker %d never ran", w)
		}
	}
	if res.Aux != 1 || res.AuxCommits == 0 || res.AuxCommits > 40 || res.AuxTime < time.Duration(res.AuxCommits)*time.Millisecond {
		t.Fatalf("aux tally: %d commits in %v", res.AuxCommits, res.AuxTime)
	}
	if res.Commits < 10*res.AuxCommits {
		t.Fatalf("the aux worker's %d transactions leaked into the %d measured commits", res.AuxCommits, res.Commits)
	}
}

// TestPrintGolden pins the table's layout: columns as wide as their widest
// cell and separated by spaces (the figure table once ran a 14-character
// label into 14-character columns), every abort class once, empty columns
// dropped, and the moved counters under each cell.
func TestPrintGolden(t *testing.T) {
	s := Sweep{Name: "fig6.0", Title: "a fake", Note: "paper: says so", Cells: []Result{
		{Iso: "SI", MPL: 1, Elapsed: time.Second, Counts: Counts{Commits: 200000, Conflicts: 600, Rollbacks: 18000},
			TPS: 200000, Latency: Latency{P50: 4200 * time.Nanosecond, P99: 61 * time.Microsecond, P999: 1234567 * time.Nanosecond, Max: 12 * time.Millisecond}},
		{Iso: "S2PL", MPL: 50, Elapsed: time.Second, Counts: Counts{Commits: 1000, Deadlocks: 30, Timeouts: 1, Other: 2},
			TPS: 1000, TPSCI95: 12.4, Latency: Latency{P50: time.Millisecond, Dropped: 7},
			Stats: Window{Stats: ssidb.Stats{LockWaits: 41, LockWaitTime: 1500 * time.Millisecond, AvgBatchSize: 3.96}, Retries: 5}},
	}}
	const want = `== fig6.0: a fake ==
   paper: says so
iso   mpl  commits/s  ±95%  deadlock  conflict  unsafe  timeout  rollback  other  p50    p99   p999    max
SI    1    200000           0         0.3%      0       0        9%        0      4.2µs  61µs  1.23ms  12ms
S2PL  50   1000       12    3%        0         0       0.1%     0         0.2%   1ms    0s    0s      0s
    AvgBatchSize=3.96 LockWaits=41 LockWaitTime=1.5s Retries=5
    samples dropped: 7 of 1000 commits (buffers full; the percentiles cover each window's start)

`
	var b bytes.Buffer
	s.Print(&b)
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}

	// With a shard axis and an auxiliary worker their columns appear.
	s.Cells = []Result{{Iso: "SSI", MPL: 8, Shards: 16, Durable: true, Elapsed: 2 * time.Second, TPS: 10,
		Counts: Counts{Commits: 20}, Aux: 1, AuxCommits: 5, AuxTime: 1500 * time.Millisecond}}
	const wantAux = `== fig6.0: a fake ==
   paper: says so
iso  mpl  shards  durable  commits/s  deadlock  conflict  unsafe  timeout  rollback  other  p50  p99  p999  max  aux/s  aux-mean
SSI  8    16      yes      10         0         0         0       0        0         0      0s   0s   0s    0s   2.5    300ms

`
	b.Reset()
	s.Print(&b)
	if b.String() != wantAux {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), wantAux)
	}
}
