package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"ssi/internal/btree"
	"ssi/internal/core"
	"ssi/internal/lock"
	"ssi/internal/mvcc"
	"ssi/internal/wal"
	"ssi/internal/workload/kvmix"
	"ssi/ssidb"
)

// The layer probes call each internal package's exported functions directly,
// in single-goroutine loops (unless stated) shaped like the workloads' use of
// them: the kv key encoding, 4 SIREAD + 2 exclusive locks per owner, 64-row
// scans, SmallBank redo records. Loops time blocks of calls, not single
// calls, so the clock reads do not show in nanosecond-scale results.

// timeLoop runs block for at least d of wall time and returns nanoseconds
// per operation. block reports how many operations its timed part performed
// and how long that part took; its untimed set-up and tear-down count
// towards d, so a loop whose set-up dwarfs the measured call still ends.
func timeLoop(d time.Duration, block func() (ops int, timed time.Duration)) float64 {
	var ops int
	var total time.Duration
	for start := time.Now(); time.Since(start) < d; {
		n, t := block()
		ops += n
		total += t
	}
	return float64(total.Nanoseconds()) / float64(ops)
}

// strider yields row ids that stay distinct for rows consecutive draws
// (7919 is prime and shares no factor with the table sizes used), without
// the locality of a plain counter.
type strider struct{ i, rows int }

func (s *strider) next() int {
	s.i = (s.i + 7919) % s.rows
	return s.i
}

func probeKeys(rows int) [][]byte {
	keys := make([][]byte, rows)
	for i := range keys {
		keys[i] = kvmix.Key(i)
	}
	return keys
}

// runProbes returns every per-layer metric that comes from a direct-call
// loop rather than from the traced workload. The lock, mvcc and btree loops
// work on as many rows as w touches — 200 000 for the kv workloads, a few
// hundred for bank-hot — so their prices include the cache misses the
// workload pays, and the layer model built from them is the workload's own.
func runProbes(w *workload, cfg *config) (map[string]float64, error) {
	rows := 0
	if w.kv != nil {
		rows = w.kv.Keys
	} else {
		rows = 3 * w.bank.Accounts // account, saving and checking rows of every customer drawn
	}
	m := map[string]float64{}
	keys := probeKeys(rows)
	probeLock(cfg, keys, m)
	probeCore(cfg, m)
	probeMVCC(cfg, keys, m)
	probeBtree(cfg, keys, m)
	if err := probeWAL(cfg, m); err != nil {
		return nil, fmt.Errorf("wal probe: %w", err)
	}
	if err := probeServer(cfg, m); err != nil {
		return nil, fmt.Errorf("server probe: %w", err)
	}
	return m, nil
}

func probeLock(cfg *config, keys [][]byte, m map[string]float64) {
	mgr := core.NewManager(ssidb.Options{}.Detector)
	locks := lock.NewManagerShards(true, 0)
	// One goroutine owns every transaction, so two owners must never ask
	// for the same row exclusively: a block's rows are all distinct.
	const sireads, exclusives = 4, 2
	owners := min(64, len(keys)/(2*(sireads+exclusives)))
	ids := strider{rows: len(keys)}
	txns := make([]*core.Txn, owners)
	var rivals []*core.Txn
	var sireadNs, xNs, releaseNs time.Duration
	var blocks int
	for start := time.Now(); time.Since(start) < 3*cfg.sizes.probe; {
		for i := range txns {
			txns[i] = mgr.Begin(core.SerializableSI)
		}
		t0 := time.Now()
		for _, t := range txns {
			for k := 0; k < sireads; k++ {
				rivals, _ = locks.AcquireInto(t, lock.RowKey(kvmix.Table, keys[ids.next()]), lock.SIRead, rivals[:0])
			}
		}
		t1 := time.Now()
		for _, t := range txns {
			for k := 0; k < exclusives; k++ {
				rivals, _ = locks.AcquireInto(t, lock.RowKey(kvmix.Table, keys[ids.next()]), lock.Exclusive, rivals[:0])
			}
		}
		t2 := time.Now()
		for _, t := range txns {
			locks.ReleaseAll(t)
		}
		t3 := time.Now()
		for _, t := range txns {
			mgr.Abort(t)
		}
		sireadNs += t1.Sub(t0)
		xNs += t2.Sub(t1)
		releaseNs += t3.Sub(t2)
		blocks++
	}
	n := float64(blocks * owners)
	m["lock.siread_acquire_ns"] = float64(sireadNs.Nanoseconds()) / (n * sireads)
	m["lock.x_acquire_ns"] = float64(xNs.Nanoseconds()) / (n * exclusives)
	m["lock.release_ns_per_lock"] = float64(releaseNs.Nanoseconds()) / (n * (sireads + exclusives))

	// A scan's batched SIREAD grant: 64 consecutive rows in one call.
	const span = 64
	batch := make([]lock.Key, span)
	m["lock.siread_batch_ns_per_key"] = timeLoop(cfg.sizes.probe, func() (int, time.Duration) {
		lo := ids.next()
		for i := range batch {
			batch[i] = lock.RowKey(kvmix.Table, keys[(lo+i)%len(keys)])
		}
		t := mgr.Begin(core.SerializableSI)
		t0 := time.Now()
		rivals = locks.AcquireSIReadBatchInto(t, batch, rivals[:0])
		d := time.Since(t0)
		locks.ReleaseAll(t)
		mgr.Abort(t)
		return span, d
	})
}

func probeCore(cfg *config, m map[string]float64) {
	mgr := core.NewManager(ssidb.Options{}.Detector)
	const n = 256
	m["core.begin_commit_ns"] = timeLoop(cfg.sizes.probe, func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			t := mgr.Begin(core.SerializableSI)
			mgr.AssignSnapshot(t)
			mgr.CommitPrepare(t)
			mgr.Finish(t, false)
		}
		return n, time.Since(t0)
	})
	// Installing a fresh rw-edge between two concurrent transactions, as the
	// first conflicting read or write of a pair does.
	pairs := make([][2]*core.Txn, n)
	m["core.mark_conflict_ns"] = timeLoop(cfg.sizes.probe, func() (int, time.Duration) {
		for i := range pairs {
			r, w := mgr.Begin(core.SerializableSI), mgr.Begin(core.SerializableSI)
			mgr.AssignSnapshot(r)
			mgr.AssignSnapshot(w)
			pairs[i] = [2]*core.Txn{r, w}
		}
		t0 := time.Now()
		for _, p := range pairs {
			mgr.MarkConflict(p[0], p[1], p[0])
		}
		d := time.Since(t0)
		for _, p := range pairs {
			mgr.Abort(p[0])
			mgr.Abort(p[1])
		}
		return n, d
	})
	// The per-operation pivot probe of a transaction with no conflicts.
	t := mgr.Begin(core.SerializableSI)
	mgr.AssignSnapshot(t)
	m["core.abort_early_ns"] = timeLoop(cfg.sizes.probe, func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < 16*n; i++ {
			mgr.AbortEarly(t)
		}
		return 16 * n, time.Since(t0)
	})
	mgr.Abort(t)
}

func probeMVCC(cfg *config, keys [][]byte, m map[string]float64) {
	mgr := core.NewManager(ssidb.Options{}.Detector)
	tb := mvcc.NewTable(kvmix.Table, mvcc.Config{PageMaxKeys: 64, Horizon: mgr.OldestActiveSnapshot})
	commit := func(t *core.Txn) {
		mgr.CommitPrepare(t)
		mgr.Finish(t, false)
	}
	for lo := 0; lo < len(keys); lo += 500 {
		t := mgr.Begin(core.SnapshotIsolation)
		mgr.AssignSnapshot(t)
		for _, k := range keys[lo:min(lo+500, len(keys))] {
			tb.Write(t, k, []byte("v"), false, nil)
		}
		commit(t)
	}
	r := rand.New(rand.NewSource(cfg.seed))
	const n = 256
	m["mvcc.read_ns"] = timeLoop(cfg.sizes.probe, func() (int, time.Duration) {
		t := mgr.Begin(core.SerializableSI)
		snap := mgr.AssignSnapshot(t)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			tb.Read(t, snap, keys[r.Intn(len(keys))])
		}
		d := time.Since(t0)
		mgr.Abort(t)
		return n, d
	})
	// Installing a version on an existing row; superseded versions pile up
	// and trigger the table's own asynchronous vacuum, as in the engine.
	ids := strider{rows: len(keys)}
	writes := min(n, len(keys))
	m["mvcc.write_ns"] = timeLoop(cfg.sizes.probe, func() (int, time.Duration) {
		t := mgr.Begin(core.SerializableSI)
		mgr.AssignSnapshot(t)
		t0 := time.Now()
		for i := 0; i < writes; i++ {
			tb.Write(t, keys[ids.next()], valW, false, nil)
		}
		d := time.Since(t0)
		commit(t)
		return writes, d
	})
	const span = 64
	m["mvcc.scan_ns_per_row"] = timeLoop(cfg.sizes.probe, func() (int, time.Duration) {
		t := mgr.Begin(core.SerializableSI)
		snap := mgr.AssignSnapshot(t)
		rows := 0
		t0 := time.Now()
		for i := 0; i < 16; i++ {
			left := span
			tb.Scan(t, snap, keys[r.Intn(len(keys))], func(mvcc.ScanItem) bool {
				rows++
				left--
				return left > 0
			})
		}
		d := time.Since(t0)
		mgr.Abort(t)
		return max(rows, 1), d
	})
	tb.Vacuum() // parks behind, and so joins, any sweep still in flight
}

func probeBtree(cfg *config, keys [][]byte, m map[string]float64) {
	// One partition of the table holds its share of the rows.
	part := append([][]byte(nil), keys[:max(len(keys)/mvcc.ShardCount(0), 1)]...)
	r := rand.New(rand.NewSource(cfg.seed))
	r.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	var tree *btree.Tree
	m["btree.insert_ns"] = timeLoop(cfg.sizes.probe, func() (int, time.Duration) {
		tree = btree.New(64)
		t0 := time.Now()
		for _, k := range part {
			tree.GetOrInsert(k, k)
		}
		return len(part), time.Since(t0)
	})
	const n = 1024
	m["btree.get_ns"] = timeLoop(cfg.sizes.probe, func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			tree.Get(part[r.Intn(len(part))])
		}
		return n, time.Since(t0)
	})
	const span = 64
	m["btree.iter_ns_per_key"] = timeLoop(cfg.sizes.probe, func() (int, time.Duration) {
		visited := 0
		t0 := time.Now()
		for i := 0; i < 16; i++ {
			it := tree.IterFrom(part[r.Intn(len(part))])
			for left := span; left > 0 && it.Valid(); left-- {
				visited++
				it.Next()
			}
		}
		return max(visited, 1), time.Since(t0)
	})
}

// probeWAL measures internal/wal with the redo records bank-durable writes:
// a small durable SmallBank run produces a crash image, whose log supplies
// both the replay timing and the payloads for the append loops.
func probeWAL(cfg *config, m map[string]float64) error {
	w := *workloadNamed(cfg.sizes, "bank-durable")
	bank := *w.bank
	bank.Accounts = min(bank.Accounts, 10_000)
	w.bank, w.bankLoad = &bank, bank.Accounts
	in, _, err := setUp(&w, cfg, nil, cfg.sizes.durableTail)
	if err != nil {
		return err
	}
	im, err := newCrashImage(in, cfg)
	if cerr := in.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	im.db.Close()
	im.db = nil
	defer im.close()

	var payloads [][]byte
	var payloadBytes int
	start := time.Now()
	l, err := wal.Open(wal.Options{Dir: im.dir, SegmentBytes: 4 << 20})
	if err != nil {
		return err
	}
	err = l.Replay(func(ts uint64, p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		payloadBytes += len(p)
		return nil
	})
	took := time.Since(start)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if len(payloads) == 0 {
		return fmt.Errorf("crash image holds no log record")
	}
	const frameHeader = 16 // crc, length and commit timestamp around every payload
	m["wal.replay_us_per_record"] = float64(took.Microseconds()) / float64(len(payloads))
	m["wal.bytes_per_commit"] = float64(payloadBytes)/float64(len(payloads)) + frameHeader

	dir, err := cfg.tempDir("walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if l, err = wal.Open(wal.Options{Dir: dir, SegmentBytes: 4 << 20}); err != nil {
		return err
	}
	var ts uint64
	var lsn wal.LSN
	const n = 256
	m["wal.append_ns"] = timeLoop(cfg.sizes.probe, func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ts++
			lsn, err = l.Append(ts, payloads[int(ts)%len(payloads)])
		}
		d := time.Since(t0)
		l.WaitDurable(lsn)
		l.TruncateBelow(ts) // drop sealed segments so the probe's footprint stays a few MiB
		return n, d
	})
	m["wal.commit_wait_us"] = timeLoop(cfg.sizes.probe, func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < 16; i++ {
			ts++
			lsn, err = l.Append(ts, payloads[int(ts)%len(payloads)])
			l.WaitDurable(lsn)
		}
		d := time.Since(t0)
		l.TruncateBelow(ts)
		return 16, d
	}) / 1e3
	if err == nil {
		err = l.Err() // a failed flush is sticky
	}
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Group commit is only visible with more committers than this box has
	// processors, so it is measured where they block on the sync and not on
	// a CPU: a null device whose sync sleeps 1 ms, 8 appenders.
	if l, err = wal.Open(wal.Options{SyncDelay: time.Millisecond}); err != nil {
		return err
	}
	var mu sync.Mutex // Append wants non-decreasing timestamps: assign and append as one step
	var wg sync.WaitGroup
	deadline := time.Now().Add(cfg.sizes.probe)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				ts++
				lsn, err := l.Append(ts, payloads[0])
				mu.Unlock()
				if err != nil || l.WaitDurable(lsn) != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	st := l.StatsSnapshot()
	m["wal.sim1ms_batch_at_8"] = float64(st.Appends) / float64(max(st.Batches, 1))
	return l.Close()
}

// probeServer prices the network front end against the same engine work: one
// connection to an in-process server and one embedded client run the
// kv-uniform transaction on the same database, alternately.
func probeServer(cfg *config, m map[string]float64) error {
	w := workloadNamed(cfg.sizes, "kv-wire")
	in, _, err := setUp(w, cfg, nil, 0)
	if err != nil {
		return err
	}
	defer in.close()
	wire := in.clients[0].(*wireClient)
	direct := newEmbedded(in.db, w)
	seeds := &in.streams[0]

	var ping, rtt, emb histogram
	for start := time.Now(); time.Since(start) < cfg.sizes.probe; {
		t0 := time.Now()
		if err := wire.cl.Ping(); err != nil {
			return err
		}
		ping.record(uint64(time.Since(t0)))
	}
	var spent time.Duration
	for spent < 2*cfg.sizes.probe {
		for _, c := range []struct {
			client
			h *histogram
		}{{wire, &rtt}, {direct, &emb}} {
			for i := 0; i < 64; i++ {
				t0 := time.Now()
				if _, err := c.exec(seeds.Uint64(), ssidb.SerializableSI, nil); err != nil {
					return err
				}
				d := time.Since(t0)
				c.h.record(uint64(d))
				spent += d
			}
		}
	}
	m["server.ping_rtt_us"] = ping.quantile(0.5) / 1e3
	m["server.txn_rtt_us"] = rtt.quantile(0.5) / 1e3
	m["server.overhead_us_per_txn"] = (rtt.quantile(0.5) - emb.quantile(0.5)) / 1e3
	return nil
}
