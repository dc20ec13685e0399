package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"ssi/internal/server"
	"ssi/internal/workload/kvmix"
	"ssi/internal/workload/smallbank"
	"ssi/ssidb"
)

// sizes fixes how much data and work a run uses. fullSizes is what the
// committed baselines were measured with; the package tests shrink every
// field so all five workloads run in well under a second each.
type sizes struct {
	kvRows       int // rows loaded by the kv workloads
	bankAccounts int // customers loaded by the bank workloads
	warmup       int // transactions per worker run by every set-up of a short-transaction workload
	warmupLong   int // the same for bank-hot and scan-readmostly, whose transactions are ~5× longer
	setups       int // set-ups per untraced run; setup_s is their median
	// Transactions per worker replayed under the sercheck recorder. The checker
	// is quadratic in the versions of one key and linear in the table for
	// every scan, so the contended and the scanning workloads replay fewer
	// transactions (and scans replay over checkScanRows rows) to keep the
	// check to about a second.
	check, checkHot, checkScan, checkScanRows int
	durableTail                               int           // transactions run after the quiescing checkpoint, so recovery replays a WAL tail
	probe                                     time.Duration // minimum length of one direct-call layer loop
}

var fullSizes = sizes{
	kvRows: 200_000, bankAccounts: 100_000, warmup: 25_000, warmupLong: 10_000, setups: 3,
	check: 10_000, checkHot: 1_000, checkScan: 5_000, checkScanRows: 2_000,
	durableTail: 2_000, probe: 200 * time.Millisecond,
}

// workload is one closed-loop traffic mix. Exactly one of kv and bank is
// set; wire sends the kv transaction through an in-process server.
type workload struct {
	name string
	why  string

	kv       *kvmix.Config
	bank     *smallbank.Config // what the workers draw from
	bankLoad int               // customers loaded (≥ bank.Accounts)
	durable  bool
	wire     bool

	warmup       int // transactions per worker run by every set-up
	checkCommits int // transactions per worker replayed under the sercheck recorder
	checkRows    int // kv table size of that replay (0 keeps kv.Keys)
}

// workloads returns the five workloads at the given sizes. Names are fixed:
// BENCHMARK.json, the baselines and later issues cite them.
func workloads(sz sizes) []*workload {
	hot := min(100, sz.bankAccounts)
	return []*workload{
		{
			name: "kv-uniform",
			why:  "4 point reads + 2 blind writes, uniform over a table larger than the CPU cache: conflicts ≈ 0, so time goes to uncontended lock acquire/release, core begin/commit and mvcc/btree point ops; bypasses conflict marking, scans, WAL, server",
			kv:   &kvmix.Config{Keys: sz.kvRows, Reads: 4, Writes: 2},

			warmup:       sz.warmup,
			checkCommits: sz.check,
		},
		{
			name:     "bank-hot",
			why:      "SmallBank, 10 operations per transaction over 100 hot customers: real rw-antidependencies, ErrUnsafe and first-committer-wins aborts, lock waits and retries; the hot set fits in cache so mvcc is cheap",
			bank:     &smallbank.Config{Accounts: hot, OpsPerTxn: 10, InitialBalance: 1_000_000},
			bankLoad: sz.bankAccounts,

			warmup:       sz.warmupLong,
			checkCommits: sz.checkHot,
		},
		{
			name: "scan-readmostly",
			why:  "90% declared read-only transactions with a 64-row range scan beside 10% writers: k-way merged scans, btree iterators, batched SIREAD and gap locks, safe-snapshot SIREAD skipping; the allocation-heavy path",
			kv: func() *kvmix.Config {
				c := kvmix.ReadMostlyConfig()
				c.Keys, c.Scans, c.ScanSpan = sz.kvRows, 1, 64
				return &c
			}(),

			warmup:       sz.warmupLong,
			checkCommits: sz.checkScan,
			checkRows:    sz.checkScanRows,
		},
		{
			name:     "bank-durable",
			why:      "SmallBank, 1 operation per transaction, uniform customers, on a durable database: WAL append, CRC framing, flusher hand-off, durable wait and checkpoint+truncate cycles; every other embedded workload bypasses the WAL",
			bank:     &smallbank.Config{Accounts: sz.bankAccounts, OpsPerTxn: 1, InitialBalance: 1_000_000},
			bankLoad: sz.bankAccounts,
			durable:  true,

			warmup:       sz.warmup,
			checkCommits: sz.check,
		},
		{
			name: "kv-wire",
			why:  "the kv-uniform transaction as one MsgTxn batch over loopback TCP to an in-process server: adds framing, admission, the session loop and the socket to the same engine work",
			kv:   &kvmix.Config{Keys: sz.kvRows, Reads: 4, Writes: 2},
			wire: true,

			warmup:       sz.warmup,
			checkCommits: sz.check,
		},
	}
}

// workers is the closed-loop client count: both vCPUs of the reference box
// are busy at 2, and more clients than processors measure the scheduler.
func workers() int { return min(2, runtime.NumCPU()) }

// splitmix is a rand.Source64 whose whole state is one word, so a worker can
// rewind it to a transaction's seed before every attempt: a retried
// transaction repeats the same operations, and the inputs a seed generates
// do not depend on how often the engine aborts.
type splitmix struct{ s uint64 }

func (m *splitmix) Uint64() uint64 {
	m.s += 0x9e3779b97f4a7c15
	z := m.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
func (m *splitmix) Int63() int64    { return int64(m.Uint64() >> 1) }
func (m *splitmix) Seed(seed int64) { m.s = uint64(seed) }

// txAPI is what a transaction body calls. *ssidb.Txn satisfies it directly;
// the traced run substitutes tracedTx, which times every call.
type txAPI interface {
	Get(table string, key []byte) ([]byte, bool, error)
	Put(table string, key, val []byte) error
	Scan(table string, from, to []byte, fn func(key, val []byte) bool) error
}

// client is one closed-loop caller: exec runs the transaction generated by
// seed until it commits, rolls back or fails, retrying retryable aborts, and
// reports the attempts it made. tr is nil except for sampled transactions of
// a traced run.
type client interface {
	exec(seed uint64, iso ssidb.Isolation, tr *tracer) (attempts int, err error)
	close() error
}

var valW = []byte("w")

// retry mirrors db.RunRetry's policy (retry while retryable, full-jitter
// backoff from the second consecutive abort) for the paths RunRetry cannot
// serve: declared read-only transactions, wire transactions and traced
// attempts. onAbort sees every retried error.
func retry(attempt func() error, retryable func(error) bool, onAbort func(error)) error {
	for n := 0; ; n++ {
		err := attempt()
		if err == nil || !retryable(err) {
			return err
		}
		if onAbort != nil {
			onAbort(err)
		}
		if n > 0 {
			ceil := time.Duration(1<<min(n, 7)) * 8 * time.Microsecond
			time.Sleep(time.Duration(rand.Int63n(int64(ceil))))
		}
	}
}

// embedded drives the engine through the public ssidb API.
type embedded struct {
	db     *ssidb.DB
	w      *workload
	choose func(*rand.Rand) int
	src    splitmix
	rng    *rand.Rand

	// Per-transaction state read by the prebuilt closures below, so exec
	// itself allocates nothing.
	iso      ssidb.Isolation
	readOnly bool
	bodySeed uint64
	attempts int
	tr       *tracer

	runBody   func(*ssidb.Txn) error
	runRO     func() error
	runTraced func() error
}

func newEmbedded(db *ssidb.DB, w *workload) *embedded {
	c := &embedded{db: db, w: w}
	c.rng = rand.New(&c.src)
	if w.kv != nil {
		c.choose = w.kv.Chooser()
	}
	c.runBody = func(tx *ssidb.Txn) error { return c.body(tx) }
	c.runRO = func() error { return c.db.RunReadOnly(c.iso, c.runBody) }
	c.runTraced = c.tracedAttempt
	return c
}

// body runs one attempt's operations from the transaction's seed.
func (c *embedded) body(tx txAPI) error {
	c.attempts++
	c.src.s = c.bodySeed
	r := c.rng
	if b := c.w.bank; b != nil {
		for i := 0; i < b.OpsPerTxn; i++ {
			if err := smallbank.RandomOp(tx, r, *b); err != nil {
				return err
			}
		}
		return nil
	}
	kv := c.w.kv
	for i := 0; i < kv.Reads; i++ {
		if _, _, err := tx.Get(kvmix.Table, kvmix.Key(c.choose(r))); err != nil {
			return err
		}
	}
	for i := 0; i < kv.Scans; i++ {
		lo := r.Intn(kv.Keys)
		hi := min(lo+kv.ScanSpan, kv.Keys)
		if err := tx.Scan(kvmix.Table, kvmix.Key(lo), kvmix.Key(hi), func(k, v []byte) bool { return true }); err != nil {
			return err
		}
	}
	if c.readOnly {
		return nil
	}
	for i := 0; i < kv.Writes; i++ {
		if err := tx.Put(kvmix.Table, kvmix.Key(c.choose(r)), valW); err != nil {
			return err
		}
	}
	return nil
}

func (c *embedded) exec(seed uint64, iso ssidb.Isolation, tr *tracer) (int, error) {
	c.src.s = seed
	c.readOnly = false
	if kv := c.w.kv; kv != nil && kv.ROFrac > 0 {
		c.readOnly = c.rng.Float64() < kv.ROFrac
	}
	c.bodySeed, c.iso, c.attempts, c.tr = c.src.s, iso, 0, tr
	var err error
	switch {
	case tr != nil:
		err = retry(c.runTraced, ssidb.Retryable, tr.noteAbort)
	case c.readOnly:
		err = retry(c.runRO, ssidb.Retryable, nil)
	default:
		err = c.db.RunRetry(iso, c.runBody)
	}
	return c.attempts, err
}

func (c *embedded) close() error { return nil }

// wireClient sends the kv transaction as one MsgTxn batch per attempt.
type wireClient struct {
	cl     *server.Client
	kv     *kvmix.Config
	choose func(*rand.Rand) int
	src    splitmix
	rng    *rand.Rand
	ops    []server.Op

	iso      ssidb.Isolation
	attempts int
	tr       *tracer
	send     func() error
}

// newWireOps returns a wire client that can build transactions but has no
// connection yet.
func newWireOps(kv *kvmix.Config) *wireClient {
	c := &wireClient{kv: kv, choose: kv.Chooser()}
	c.rng = rand.New(&c.src)
	return c
}

func newWireClient(addr string, kv *kvmix.Config) (*wireClient, error) {
	cl, err := server.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("dial in-process server: %w", err)
	}
	c := newWireOps(kv)
	c.cl = cl
	c.send = func() error {
		c.attempts++
		var s int
		if c.tr != nil {
			s = c.tr.begin(spanWireDo)
		}
		_, err := c.cl.Do(c.iso, false, c.ops)
		if c.tr != nil {
			c.tr.end(s)
		}
		return err
	}
	return c, nil
}

// build fills c.ops with the batch the seed generates.
func (c *wireClient) build(seed uint64) {
	c.src.s = seed
	ops := c.ops[:0]
	for i := 0; i < c.kv.Reads; i++ {
		ops = append(ops, server.Op{Type: server.OpGet, Table: kvmix.Table, Key: kvmix.Key(c.choose(c.rng))})
	}
	for i := 0; i < c.kv.Writes; i++ {
		ops = append(ops, server.Op{Type: server.OpPut, Table: kvmix.Table, Key: kvmix.Key(c.choose(c.rng)), Val: valW})
	}
	c.ops = ops
}

func (c *wireClient) exec(seed uint64, iso ssidb.Isolation, tr *tracer) (int, error) {
	c.build(seed)
	c.iso, c.attempts, c.tr = iso, 0, tr
	var onAbort func(error)
	if tr != nil {
		onAbort = tr.noteAbort
	}
	err := retry(c.send, server.Retryable, onAbort)
	return c.attempts, err
}

func (c *wireClient) close() error { return c.cl.Close() }

// instance is one opened, loaded and warmed database with its clients (and,
// for the wire workload, its in-process server). close releases everything
// it owns; it is safe on a partially built instance.
type instance struct {
	db      *ssidb.DB
	dir     string // WAL directory of a durable instance, removed by close
	srv     *server.Server
	served  chan error
	clients []client
	streams []splitmix // per-worker generators of transaction seeds
}

// durableOptions is what bank-durable opens: small segments and checkpoint
// threshold so a run crosses several checkpoint+truncate cycles.
func durableOptions(rec ssidb.Recorder) ssidb.Options {
	return ssidb.Options{SegmentBytes: 4 << 20, CheckpointBytes: 4 << 20, Recorder: rec}
}

// setUp opens a database for w, loads it, starts the clients and runs the
// fixed-count warm-up, returning the wall time of all of it — the setup_s
// metric. rec, when non-nil, records the history for the output check.
func setUp(w *workload, cfg *config, rec ssidb.Recorder, warmup int) (in *instance, took time.Duration, err error) {
	start := time.Now()
	in = &instance{}
	defer func() {
		if err != nil {
			in.close()
			in = nil
		}
	}()
	if w.durable {
		if in.dir, err = cfg.tempDir("wal-"); err != nil {
			return in, 0, err
		}
		if in.db, err = ssidb.OpenDir(in.dir, durableOptions(rec)); err != nil {
			return in, 0, fmt.Errorf("open durable database: %w", err)
		}
	} else {
		in.db = ssidb.Open(ssidb.Options{Recorder: rec})
	}
	if w.kv != nil {
		err = kvmix.Load(in.db, *w.kv)
	} else {
		err = smallbank.Load(in.db, smallbank.Config{Accounts: w.bankLoad, InitialBalance: w.bank.InitialBalance})
	}
	if err != nil {
		return in, 0, fmt.Errorf("load %s: %w", w.name, err)
	}
	n := workers()
	if w.wire {
		if in.srv, err = server.Listen("127.0.0.1:0", server.Config{DB: in.db}); err != nil {
			return in, 0, fmt.Errorf("listen: %w", err)
		}
		in.served = make(chan error, 1)
		go func(srv *server.Server, done chan<- error) { done <- srv.Serve() }(in.srv, in.served)
	}
	for i := 0; i < n; i++ {
		var c client
		if w.wire {
			if c, err = newWireClient(in.srv.Addr().String(), w.kv); err != nil {
				return in, 0, err
			}
		} else {
			c = newEmbedded(in.db, w)
		}
		in.clients = append(in.clients, c)
		in.streams = append(in.streams, splitmix{s: uint64(cfg.seed*1000 + int64(i))})
	}
	if err = in.runFixed(warmup); err != nil {
		return in, 0, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	return in, time.Since(start), nil
}

// runFixed runs txns transactions on every worker concurrently at
// SerializableSI. An application rollback is a completed transaction.
func (in *instance) runFixed(txns int) error {
	errs := make([]error, len(in.clients))
	var wg sync.WaitGroup
	for i := range in.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < txns; n++ {
				if _, err := in.clients[i].exec(in.streams[i].Uint64(), ssidb.SerializableSI, nil); err != nil && !isRollback(err) {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (in *instance) close() error {
	var errs []error
	for _, c := range in.clients {
		errs = append(errs, c.close())
	}
	in.clients = nil
	if in.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, in.srv.Shutdown(ctx))
		cancel()
		if in.served != nil {
			errs = append(errs, <-in.served)
		}
		in.srv = nil
	}
	if in.db != nil {
		errs = append(errs, in.db.Close())
		in.db = nil
	}
	if in.dir != "" {
		errs = append(errs, os.RemoveAll(in.dir))
		in.dir = ""
	}
	return errors.Join(errs...)
}
