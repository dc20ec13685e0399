// Package kvmix is a concurrency-control scaling microbenchmark: a point
// read/write mix whose key distribution is configurable from uniform over a
// keyspace wide enough that data conflicts are rare (throughput dominated by
// the engine's begin/lock/commit paths) to hot-set skew that collides transactions on purpose (throughput dominated by the conflict
// and blocking paths). It is not one of the paper's workloads — the paper
// measures contention regimes at modest multiprogramming — but the probe
// for what the paper's prototypes could not show: whether the
// transaction-manager core itself scales with parallelism once the global
// kernel-mutex and lock-table latches are sharded away, and what the SSI
// conflict-tracking machinery costs once rw-edges actually occur.
package kvmix

import (
	"encoding/binary"
	"math/rand"

	"ssi/internal/harness"
	"ssi/ssidb"
)

// Table is the benchmark's single table.
const Table = "kvmix"

// Config sizes the workload.
type Config struct {
	// Keys is the keyspace width. The default 10000 keeps First-Committer-
	// Wins aborts below the noise floor at any realistic parallelism.
	Keys int
	// Reads and Writes are the point operations per transaction. The
	// default 4+2 mirrors a short OLTP transaction.
	Reads, Writes int
	// Scans is the number of ordered range scans per transaction (default
	// 0), each covering ScanSpan consecutive keys from a uniform start —
	// the probe for the partitioned store's merged-scan path.
	Scans int
	// ScanSpan is the key width of each scan. Default 16 when Scans > 0.
	ScanSpan int

	// HotKeys, when > 0, turns on fixed hot-set skew: each point operation
	// targets one of the first HotKeys keys with probability HotProb and a
	// uniform key otherwise. A small hot set at moderate probability makes
	// concurrent transactions actually collide — uniform kvmix over 10k
	// keys almost never does — so the SSI conflict-marking path and the
	// lock manager's blocking path carry real traffic.
	HotKeys int
	// HotProb is the probability a point operation goes to the hot set.
	// Default 0.5 when HotKeys > 0.
	HotProb float64

	// ROFrac, when > 0, makes that fraction of transactions pure readers
	// (Reads point reads and Scans range scans, no writes) — the shape of
	// realistic read-mostly traffic. Clamped to [0, 1].
	ROFrac float64
	// RODeclared, with ROFrac > 0, runs the reader transactions declared
	// read-only (ssidb.RunReadOnly), enabling the SSI read-only
	// optimisations: no out-edge tracking, and SIREAD-free reads once the
	// snapshot is safe. Undeclared readers measure the baseline cost the
	// declaration removes.
	RODeclared bool
}

// DefaultConfig returns the standard scaling probe: 4 reads and 2 writes
// over 10k keys.
func DefaultConfig() Config {
	return Config{Keys: 10000, Reads: 4, Writes: 2}
}

// ReadHeavyConfig returns the storage-scaling probe: a read-dominated mix
// (12 point reads, 1 ordered scan, 1 write over 10k keys) whose throughput
// tracks the row store's read path — the workload the TableShards sweep
// measures.
func ReadHeavyConfig() Config {
	return Config{Keys: 10000, Reads: 12, Writes: 1, Scans: 1, ScanSpan: 16}
}

// ReadMostlyConfig returns the read-only-optimisation probe: 90% of
// transactions are pure readers declared read-only, the rest run the
// standard 4-read 2-write mix. At SerializableSI the declared readers skip
// out-edge tracking immediately and SIREAD acquisition once their snapshots
// turn safe, so throughput should close most of the gap to plain SI.
func ReadMostlyConfig() Config {
	return Config{Keys: 10000, Reads: 4, Writes: 2, ROFrac: 0.9, RODeclared: true}
}

// HotConfig returns the conflict-path probe: the standard 4+2 mix with half
// of all point operations directed at a 16-key hot set. At MPL ≥ 8 nearly
// every SSI transaction overlaps a rival on a hot key, so rw-edges are
// installed and checked constantly — the regime that exposes the cost of
// the conflict core, which uniform kvmix hides at both extremes.
func HotConfig() Config {
	return Config{Keys: 10000, Reads: 4, Writes: 2, HotKeys: 16, HotProb: 0.5}
}

func (c Config) normalized() Config {
	if c.Keys <= 0 {
		c.Keys = 10000
	}
	if c.Reads < 0 {
		c.Reads = 0
	}
	if c.Writes < 0 {
		c.Writes = 0
	}
	if c.Scans < 0 {
		c.Scans = 0
	}
	if c.Scans > 0 && c.ScanSpan <= 0 {
		c.ScanSpan = 16
	}
	if c.HotKeys > c.Keys {
		c.HotKeys = c.Keys
	}
	if c.HotKeys > 0 && c.HotProb <= 0 {
		c.HotProb = 0.5
	}
	if c.ROFrac < 0 {
		c.ROFrac = 0
	}
	if c.ROFrac > 1 {
		c.ROFrac = 1
	}
	return c
}

// Chooser returns the configuration's key-id chooser (uniform or hot-set,
// after normalization) — exported so external drivers (the remote
// rows of internal/scenario assembling batched requests) draw keys from
// exactly the distribution the in-process Worker uses. The returned func is
// safe for concurrent use with per-worker *rand.Rands.
func (c Config) Chooser() func(r *rand.Rand) int {
	return c.normalized().chooser()
}

// chooser returns the key-id chooser for the configuration. Both variants are
// stateless, so they are allocation-free per call and safe for concurrent use
// with per-worker *rand.Rands.
func (c Config) chooser() func(r *rand.Rand) int {
	if c.HotKeys > 0 {
		return func(r *rand.Rand) int {
			if r.Float64() < c.HotProb {
				return r.Intn(c.HotKeys)
			}
			return r.Intn(c.Keys)
		}
	}
	return func(r *rand.Rand) int { return r.Intn(c.Keys) }
}

// Key returns the row key for key-id — exported so external drivers (the
// remote rows of internal/scenario, the alloc benchmarks) address the rows
// kvmix.Load created without duplicating the encoding.
func Key(id int) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(id))
	return b[:]
}

func key(id int) []byte { return Key(id) }

// Load populates the table with Keys rows.
func Load(db *ssidb.DB, cfg Config) error {
	cfg = cfg.normalized()
	const batch = 500
	for lo := 0; lo < cfg.Keys; lo += batch {
		hi := lo + batch
		if hi > cfg.Keys {
			hi = cfg.Keys
		}
		if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			for i := lo; i < hi; i++ {
				if err := tx.Put(Table, key(i), []byte("v")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// Worker returns the transaction function: Reads point reads, then Scans
// ordered range scans, then Writes point writes, with point keys drawn from
// the configured distribution (uniform or hot-set) and scan starts
// uniform.
func Worker(db *ssidb.DB, iso ssidb.Isolation, cfg Config) harness.TxnFunc {
	cfg = cfg.normalized()
	choose := cfg.chooser()
	return func(r *rand.Rand) error {
		// A ROFrac draw turns this transaction into a pure reader: the same
		// read mix, no writes, declared read-only when configured.
		reader := cfg.ROFrac > 0 && r.Float64() < cfg.ROFrac
		body := func(tx *ssidb.Txn) error {
			for i := 0; i < cfg.Reads; i++ {
				if _, _, err := tx.Get(Table, key(choose(r))); err != nil {
					return err
				}
			}
			for i := 0; i < cfg.Scans; i++ {
				lo := r.Intn(cfg.Keys)
				hi := lo + cfg.ScanSpan
				if hi > cfg.Keys {
					hi = cfg.Keys
				}
				if err := tx.Scan(Table, key(lo), key(hi), func(k, v []byte) bool { return true }); err != nil {
					return err
				}
			}
			if reader {
				return nil
			}
			for i := 0; i < cfg.Writes; i++ {
				if err := tx.Put(Table, key(choose(r)), []byte("w")); err != nil {
					return err
				}
			}
			return nil
		}
		if reader && cfg.RODeclared {
			return db.RunReadOnly(iso, body)
		}
		return db.Run(iso, body)
	}
}
