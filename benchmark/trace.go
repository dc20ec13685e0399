package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ssi/ssidb"
)

// Tracing lives entirely in this package: spans are recorded around the
// calls the benchmark makes into the engine's public API, never inside the
// engine. Only sampled transactions pay for it; they run through an explicit
// begin/body/commit loop so each call can be timed.

type spanName uint8

const (
	spanTxn     spanName = iota // one transaction, retries and backoff included
	spanAttempt                 // one attempt: begin, body, commit or abort
	spanBegin
	spanRead
	spanWrite
	spanScan
	spanCommit
	spanAbort
	spanWireDo // one Client.Do round trip (the wire workload's attempt)
)

var spanNames = [...]string{
	spanTxn: "bench.txn", spanAttempt: "bench.attempt",
	spanBegin: "ssidb.begin", spanRead: "ssidb.read", spanWrite: "ssidb.write",
	spanScan: "ssidb.scan", spanCommit: "ssidb.commit", spanAbort: "ssidb.abort",
	spanWireDo: "server.do",
}

// span is one timed call. Spans of one transaction share txn; parent is the
// id of the enclosing span (0 for the transaction itself).
type span struct {
	txn        uint64
	id, parent uint32
	name       spanName
	rows       uint32 // rows a scan delivered
	start, end int64  // nanoseconds since the phase started
}

// tracer collects one worker's spans in memory. It is used by that worker
// only, and read after the workers are joined.
type tracer struct {
	worker int
	base   time.Time
	spans  []span

	txn      uint64
	txnStart int // index of the open transaction's first span
	nextID   uint32
	stack    [4]int // indices of the open spans, outermost first
	depth    int

	// Abort causes of the sampled transactions that went on to commit.
	unsafe, writeConflict, deadlock uint64
	pending                         [3]uint64 // causes of the open transaction
}

func newTracer(worker int) *tracer { return &tracer{worker: worker} }

func (t *tracer) at(now time.Time) int64 { return int64(now.Sub(t.base)) }

func (t *tracer) push(name spanName, start int64) int {
	var parent uint32
	if t.depth > 0 {
		parent = t.spans[t.stack[t.depth-1]].id
	}
	t.nextID++
	t.spans = append(t.spans, span{txn: t.txn, id: t.nextID, parent: parent, name: name, start: start})
	idx := len(t.spans) - 1
	t.stack[t.depth] = idx
	t.depth++
	return idx
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name spanName) int { return t.push(name, t.at(time.Now())) }

// end closes the innermost open span, which must be the one idx names.
func (t *tracer) end(idx int) {
	t.spans[idx].end = t.at(time.Now())
	t.depth--
}

func (t *tracer) beginTxn(n int, start time.Time) {
	t.txn = uint64(t.worker)<<40 | uint64(n)
	t.txnStart, t.nextID, t.depth = len(t.spans), 0, 0
	t.pending = [3]uint64{}
	t.push(spanTxn, t.at(start))
}

// endTxn closes the transaction. Only committed transactions are kept: the
// per-transaction means are over commits, like every end-to-end metric.
func (t *tracer) endTxn(end time.Time, committed bool) {
	if !committed {
		t.spans = t.spans[:t.txnStart]
		return
	}
	t.spans[t.txnStart].end = t.at(end)
	t.unsafe += t.pending[0]
	t.writeConflict += t.pending[1]
	t.deadlock += t.pending[2]
}

// noteAbort classifies one retried abort of the open transaction; a lock
// timeout, which the zero Options never produce, is retried uncounted.
func (t *tracer) noteAbort(err error) {
	switch {
	case errors.Is(err, ssidb.ErrUnsafe):
		t.pending[0]++
	case errors.Is(err, ssidb.ErrWriteConflict):
		t.pending[1]++
	case errors.Is(err, ssidb.ErrDeadlock):
		t.pending[2]++
	}
}

// tracedTx times every call a transaction body makes.
type tracedTx struct {
	tx *ssidb.Txn
	tr *tracer
}

func (t *tracedTx) Get(table string, key []byte) ([]byte, bool, error) {
	s := t.tr.begin(spanRead)
	v, ok, err := t.tx.Get(table, key)
	t.tr.end(s)
	return v, ok, err
}

func (t *tracedTx) Put(table string, key, val []byte) error {
	s := t.tr.begin(spanWrite)
	err := t.tx.Put(table, key, val)
	t.tr.end(s)
	return err
}

func (t *tracedTx) Scan(table string, from, to []byte, fn func(key, val []byte) bool) error {
	s := t.tr.begin(spanScan)
	var rows uint32
	err := t.tx.Scan(table, from, to, func(k, v []byte) bool {
		rows++
		return fn(k, v)
	})
	t.tr.spans[s].rows = rows
	t.tr.end(s)
	return err
}

// tracedAttempt is one attempt of a sampled transaction: what db.Run does,
// with a span around each step.
func (c *embedded) tracedAttempt() error {
	tr := c.tr
	a := tr.begin(spanAttempt)
	defer tr.end(a)
	s := tr.begin(spanBegin)
	tx := c.db.BeginTx(c.iso, ssidb.TxnOptions{ReadOnly: c.readOnly})
	tr.end(s)
	if err := c.body(&tracedTx{tx, tr}); err != nil {
		s = tr.begin(spanAbort)
		tx.Abort()
		tr.end(s)
		return err
	}
	s = tr.begin(spanCommit)
	err := tx.Commit()
	tr.end(s)
	return err
}

// txnCost is what one sampled, committed transaction spent, in nanoseconds,
// and how many calls it made. Everything but total and retry describes the
// final, committing attempt.
type txnCost struct {
	total, retry, body               float64 // whole span; aborted attempts + backoff; attempt minus its calls
	begin, read, write, scan, commit float64
	calls                            float64 // begin + read + write + scan + commit
	reads, writes, scans, scanRows   float64
}

// txnCosts walks every tracer once. Within a transaction the spans are in
// start order, so the final attempt is the last spanAttempt (or, on the
// wire, the last spanWireDo) and the calls after it belong to it.
func txnCosts(tracers []*tracer) []txnCost {
	var out []txnCost
	for _, tr := range tracers {
		for i := 0; i < len(tr.spans); {
			root := tr.spans[i]
			j, last := i+1, i
			for ; j < len(tr.spans) && tr.spans[j].txn == root.txn; j++ {
				if n := tr.spans[j].name; n == spanAttempt || n == spanWireDo {
					last = j
				}
			}
			final := tr.spans[last]
			c := txnCost{total: float64(root.end - root.start)}
			c.retry = c.total - float64(final.end-final.start)
			for _, sp := range tr.spans[last+1 : j] {
				d := float64(sp.end - sp.start)
				switch sp.name {
				case spanBegin:
					c.begin += d
				case spanRead:
					c.read += d
					c.reads++
				case spanWrite:
					c.write += d
					c.writes++
				case spanScan:
					c.scan += d
					c.scanRows += float64(sp.rows)
				case spanCommit:
					c.commit += d
				}
			}
			c.calls = c.begin + c.read + c.write + c.scan + c.commit
			if final.name == spanAttempt {
				c.body = float64(final.end-final.start) - c.calls
			}
			out = append(out, c)
			i = j
		}
	}
	return out
}

// over applies f to every cost and returns the median and the mean of the
// results. Per-transaction times are reported as medians: on a shared
// 2-processor box a mean mostly measures whichever spans a preemption or a
// garbage collection happened to land in. Counts are reported as means.
func over(costs []txnCost, f func(*txnCost) float64) (med, mean float64) {
	if len(costs) == 0 {
		return 0, 0
	}
	vs := make([]float64, len(costs))
	for i := range costs {
		vs[i] = f(&costs[i])
		mean += vs[i]
	}
	return median(vs), mean / float64(len(vs))
}

// writeSpans writes every kept span as one CSV line.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "txn,span,parent,name,start_ns,end_ns,rows")
	for _, tr := range tracers {
		for _, sp := range tr.spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", sp.txn, sp.id, sp.parent, spanNames[sp.name], sp.start, sp.end, sp.rows)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ratio is a/b, or 0 when there is nothing to divide by (a layer the
// workload bypasses reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// A traced run cycles its windows through three modes, so that drift of the
// box between them cancels: sampled-tracing on at SerializableSI, untraced at
// SerializableSI (the reference for the tracing overhead), untraced at
// SnapshotIsolation (the denominator of the paper's headline ratio).
const (
	tracedCycles = 4  // windows per mode
	sampleEvery  = 32 // one transaction in this many is traced
)

const (
	modeTraced = iota
	modeSSI
	modeSI
	numModes
)

// runTraced produces the per-layer metrics of one workload: spans around the
// public API calls of sampled transactions and engine counter deltas from
// the real workload, the output checks, and the direct-call probes of every
// internal package.
func runTraced(w *workload, cfg *config) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, Trace: true, Metrics: map[string]float64{}, Info: map[string]float64{}}
	in, _, err := setUp(w, cfg, nil, w.warmup)
	if err != nil {
		return nil, err
	}
	defer func() { in.close() }()
	if w.durable {
		res.WALFS = cfg.walFS
	}
	_, winLen := windowsFor(cfg.seconds)

	// Engine counters at every window boundary, so the deltas can be taken
	// over the SerializableSI windows only.
	type counters struct {
		db        ssidb.Stats
		admitWait time.Duration
		admitted  uint64
	}
	windows := tracedCycles * numModes
	at := make([]counters, windows+1)
	tm := in.measure(phase{
		windows: windows, winLen: winLen,
		mode: func(w int) windowMode {
			switch w % numModes {
			case modeTraced:
				return windowMode{iso: ssidb.SerializableSI, sampleEvery: sampleEvery}
			case modeSI:
				return windowMode{iso: ssidb.SnapshotIsolation}
			}
			return windowMode{iso: ssidb.SerializableSI}
		},
		atBoundary: func(b int) {
			at[b].db = in.db.StatsSnapshot()
			if in.srv != nil {
				_, adm, _ := in.srv.StatsSnapshot()
				at[b].admitWait, at[b].admitted = adm.QueueWaitTime, adm.Admitted
			}
		},
	})

	res.Attempted = tm.total.commits + tm.total.rollbacks + tm.total.failed
	res.Failed = tm.total.failed
	if tm.firstErr != nil {
		res.Problems = append(res.Problems, "transaction error: "+tm.firstErr.Error())
	}
	if w.durable {
		checkRecovery(in, cfg, res)
	}
	if err := in.close(); err != nil {
		res.fail("tear-down: %v", err)
	}
	checkSerializable(w, cfg, res)

	probes, err := runProbes(w, cfg)
	if err != nil {
		return nil, err
	}
	m := res.Metrics
	for k, v := range probes {
		m[k] = v
	}

	costs := txnCosts(tm.tracers)
	usMedian := func(f func(*txnCost) float64) float64 {
		med, _ := over(costs, f)
		return med / 1e3
	}
	m["ssidb.begin_us_per_txn"] = usMedian(func(c *txnCost) float64 { return c.begin })
	m["ssidb.read_us_per_txn"] = usMedian(func(c *txnCost) float64 { return c.read })
	m["ssidb.write_us_per_txn"] = usMedian(func(c *txnCost) float64 { return c.write })
	m["ssidb.scan_us_per_txn"] = usMedian(func(c *txnCost) float64 { return c.scan })
	m["ssidb.commit_us_per_txn"] = usMedian(func(c *txnCost) float64 { return c.commit })
	// Most transactions never retry, so the median retry cost is 0 by
	// construction; wasted work is a mean.
	_, retryNs := over(costs, func(c *txnCost) float64 { return c.retry })
	m["ssidb.retry_us_per_commit"] = retryNs / 1e3
	var aborts [3]uint64
	for _, tr := range tm.tracers {
		aborts[0] += tr.unsafe
		aborts[1] += tr.writeConflict
		aborts[2] += tr.deadlock
	}
	n := float64(len(costs))
	m["ssidb.unsafe_per_commit"] = ratio(float64(aborts[0]), n)
	m["ssidb.write_conflict_per_commit"] = ratio(float64(aborts[1]), n)
	m["ssidb.deadlock_per_commit"] = ratio(float64(aborts[2]), n)

	// Per-mode throughput and engine counter deltas.
	var perMode [numModes][]float64
	var ssi counters
	var ssiCommits float64
	for i, v := range tm.perSecond() {
		mode := i % numModes
		perMode[mode] = append(perMode[mode], v)
		if mode == modeSI {
			continue
		}
		ssiCommits += float64(tm.wins[i].commits)
		a, b := &at[i].db, &at[i+1].db
		ssi.db.LockWaits += b.LockWaits - a.LockWaits
		ssi.db.LockParks += b.LockParks - a.LockParks
		ssi.db.LockWaitTime += b.LockWaitTime - a.LockWaitTime
		ssi.db.VacuumRuns += b.VacuumRuns - a.VacuumRuns
		ssi.db.VersionsPruned += b.VersionsPruned - a.VersionsPruned
		ssi.db.Fsyncs += b.Fsyncs - a.Fsyncs
		ssi.db.WALAppends += b.WALAppends - a.WALAppends
		ssi.db.ROSIReadSkips += b.ROSIReadSkips - a.ROSIReadSkips
		ssi.admitWait += at[i+1].admitWait - at[i].admitWait
		ssi.admitted += at[i+1].admitted - at[i].admitted
	}

	// The layer model: what the calls of an average sampled transaction
	// would cost if each were the direct-call loop's price. What the public
	// API calls took beyond it is ssidb's own glue (plus everything the
	// single-goroutine probes cannot see: two workers sharing caches and
	// latches). On the wire the engine calls happen inside the server, out
	// of the benchmark's sight, so the model does not apply.
	_, reads := over(costs, func(c *txnCost) float64 { return c.reads })
	_, writes := over(costs, func(c *txnCost) float64 { return c.writes })
	_, scans := over(costs, func(c *txnCost) float64 { return c.scans })
	_, rows := over(costs, func(c *txnCost) float64 { return c.scanRows })
	_, writers := over(costs, func(c *txnCost) float64 { return min(c.writes, 1) })
	// Declared read-only transactions on a safe snapshot take no SIREAD
	// locks; the engine counts what they skipped, one per point read and per
	// scanned row plus one per scan.
	locked := 1 - min(1, ratio(ratio(float64(ssi.db.ROSIReadSkips), ssiCommits), reads+rows+scans))
	modelNs := reads*(locked*m["lock.siread_acquire_ns"]+m["mvcc.read_ns"]) +
		writes*(m["lock.x_acquire_ns"]+m["mvcc.write_ns"]) +
		rows*(m["mvcc.scan_ns_per_row"]+locked*2*m["lock.siread_batch_ns_per_key"]) + // a row lock and a gap lock per scanned row
		(locked*(reads+2*rows)+writes)*m["lock.release_ns_per_lock"] +
		m["core.begin_commit_ns"]
	if w.durable {
		modelNs += writers * m["wal.commit_wait_us"] * 1e3
	}
	calls := usMedian(func(c *txnCost) float64 { return c.calls })
	if !w.wire {
		m["ssidb.glue_us_per_txn"] = calls - modelNs/1e3
	}
	res.Info["sampled_txns"] = n
	res.Info["txn_span_us"] = usMedian(func(c *txnCost) float64 { return c.total })
	res.Info["api_calls_us_per_txn"] = calls
	res.Info["layer_model_us_per_txn"] = modelNs / 1e3
	res.Info["bench_body_us_per_txn"] = usMedian(func(c *txnCost) float64 { return c.body })

	traced, untraced, si := median(perMode[modeTraced]), median(perMode[modeSSI]), median(perMode[modeSI])
	m["ssidb.ssi_over_si"] = ratio(untraced, si)
	m["trace.overhead_frac"] = 1 - ratio(traced, untraced)
	res.Info["traced_commits_per_s"] = traced
	res.Info["untraced_ssi_commits_per_s"] = untraced
	res.Info["untraced_si_commits_per_s"] = si

	m["lock.waits_per_commit"] = ratio(float64(ssi.db.LockWaits), ssiCommits)
	m["lock.parks_per_commit"] = ratio(float64(ssi.db.LockParks), ssiCommits)
	m["lock.wait_us_per_commit"] = ratio(float64(ssi.db.LockWaitTime.Microseconds()), ssiCommits)
	m["mvcc.vacuum_runs_per_kcommit"] = ratio(1e3*float64(ssi.db.VacuumRuns), ssiCommits)
	m["mvcc.versions_pruned_per_commit"] = ratio(float64(ssi.db.VersionsPruned), ssiCommits)
	m["wal.fsyncs_per_commit"] = ratio(float64(ssi.db.Fsyncs), float64(ssi.db.WALAppends))
	// Checkpoints of the whole phase, scaled to the length of an untraced run.
	m["wal.checkpoints_per_run"] = float64(at[windows].db.Checkpoints-at[0].db.Checkpoints) * cfg.seconds / (float64(windows) * winLen.Seconds())
	m["server.admission_wait_us_per_txn"] = ratio(float64(ssi.admitWait.Microseconds()), float64(ssi.admitted))

	if err := writeSpans(filepath.Join(cfg.outDir, "spans-"+w.name+".csv"), tm.tracers); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.Correct = res.Failed == 0
	return res, nil
}
