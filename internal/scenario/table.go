package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"ssi/internal/harness"
	"ssi/internal/workload/kvmix"
	"ssi/internal/workload/sibench"
	"ssi/internal/workload/smallbank"
	"ssi/internal/workload/tpcc"
	"ssi/ssidb"
)

// Scale tunes data volumes relative to the paper, so the same table serves
// quick runs and full reproductions.
type Scale struct {
	// Flush is the simulated log flush latency of the "log flushed on
	// commit" SmallBank figures (the paper's disk gave ~10ms).
	Flush time.Duration
	// Warehouses is the warehouse count of the W=10 TPC-C++ figures.
	Warehouses int
	// InitialOrders is the number of preloaded orders per district of the
	// TPC-C++ figures (the TPC-C spec says 3000).
	InitialOrders int
}

// QuickScale finishes in minutes on a laptop.
func QuickScale() Scale {
	return Scale{Flush: 500 * time.Microsecond, Warehouses: 2, InitialOrders: 100}
}

// PaperScale follows the thesis parameters.
func PaperScale() Scale {
	return Scale{Flush: 2 * time.Millisecond, Warehouses: 10, InitialOrders: 3000}
}

var (
	allIsos   = []ssidb.Isolation{ssidb.SnapshotIsolation, ssidb.SerializableSI, ssidb.S2PL}
	ssiOnly   = []ssidb.Isolation{ssidb.SerializableSI}
	paperMPLs = []int{1, 2, 3, 5, 10, 20, 50} // the paper's multiprogramming-level axis
	probeMPLs = []int{1, 2, 4, 8, 16, 32, 64}
	shardAxis = []int{1, 4, 16, 64}
)

// scanStallKeys is the scanstall table width: wide enough that one full scan
// spans hundreds of lock-coupled rounds, the regime where a scan that held
// every latch stalled writers for its whole length.
const scanStallKeys = 100000

// of returns a row that loads cfg with a workload package's Load and runs its
// Worker on every worker, at Serializable SI unless told otherwise.
func of[C any](cfg C, load func(*ssidb.DB, C) error, worker func(*ssidb.DB, ssidb.Isolation, C) harness.TxnFunc) Row {
	return Row{
		Isos: ssiOnly,
		Load: func(db *ssidb.DB, iso ssidb.Isolation) (ssidb.Isolation, error) { return iso, load(db, cfg) },
		Txn: func(db *ssidb.DB, iso ssidb.Isolation) func(int) harness.TxnFunc {
			return harness.Every(worker(db, iso, cfg))
		},
	}
}

// programs returns a row that drives every transaction through RunProgram,
// at the level the robustness analysis justifies rather than a chosen one.
// The programs are registered after the (ad-hoc) load, so the proof covers
// exactly the measured traffic.
func programs[C any](cfg C, load func(*ssidb.DB, C) error, register func(*ssidb.DB) (*ssidb.ProgramReport, error), worker func(*ssidb.DB, C) harness.TxnFunc) Row {
	return Row{
		Load: func(db *ssidb.DB, _ ssidb.Isolation) (ssidb.Isolation, error) {
			if err := load(db, cfg); err != nil {
				return 0, err
			}
			rep, err := register(db)
			if err != nil {
				return 0, err
			}
			return rep.Level, nil
		},
		Txn: func(db *ssidb.DB, _ ssidb.Isolation) func(int) harness.TxnFunc { return harness.Every(worker(db, cfg)) },
	}
}

// figure makes r Figure 6.n of the thesis: the paper's MPL axis at SI,
// Serializable SI and S2PL.
func (r Row) figure(n int, title, paper string, opts ssidb.Options) Row {
	r.Name, r.Title, r.Note = fmt.Sprintf("fig6.%d", n), title, "paper: "+paper
	r.Isos, r.MPLs = allIsos, paperMPLs
	r.Options = fixed(opts)
	return r
}

// probe makes r a scenario beyond the paper: a wider MPL axis and, where
// shards is set, the shard axis opts interprets.
func (r Row) probe(name, title, note string, shards []int, opts func(shards int) ssidb.Options) Row {
	r.Name, r.Title, r.Note = name, title, note
	r.MPLs, r.Shards, r.Options = probeMPLs, shards, opts
	return r
}

func lockShards(s int) ssidb.Options  { return ssidb.Options{LockShards: s} }
func tableShards(s int) ssidb.Options { return ssidb.Options{TableShards: s} }
func fixed(o ssidb.Options) func(int) ssidb.Options {
	return func(int) ssidb.Options { return o }
}

// Rows returns the table at the given scale.
func Rows(s Scale) []Row {
	// The Berkeley DB prototype of the SmallBank figures: page locking with
	// ~100 leaf pages per table at 1000 accounts (§6.1.2), a simulated log
	// device, and the basic detector the prototype used.
	bdb := func(flush time.Duration) ssidb.Options {
		return ssidb.Options{Granularity: ssidb.GranularityPage, PageMaxKeys: 10, FlushLatency: flush, Detector: ssidb.DetectorBasic}
	}
	sb := smallbank.DefaultConfig()
	sbLow, sbComplex := sb, sb
	sbLow.Accounts = 10000
	sbComplex.OpsPerTxn = 10
	sbComplexLow := sbLow
	sbComplexLow.OpsPerTxn = 10
	bank := func(cfg smallbank.Config) Row { return of(cfg, smallbank.Load, smallbank.Worker) }
	si := func(items, queries int) Row {
		return of(sibench.Config{Items: items, QueriesPerUpdate: queries}, sibench.Load, sibench.Worker)
	}
	tp := func(warehouses int, tiny, skipYTD, stockMix bool) Row {
		cfg := tpcc.DefaultConfig()
		cfg.Warehouses, cfg.Tiny, cfg.SkipYTD, cfg.StockLevelMix = warehouses, tiny, skipYTD, stockMix
		cfg.InitialOrders = s.InitialOrders
		return of(cfg, tpcc.Load, tpcc.Worker)
	}
	w := s.Warehouses
	tiny := tpcc.DefaultConfig()
	tiny.Tiny = true
	mixed := sibench.Config{Items: 100, QueriesPerUpdate: 10}
	// scanstall: the kvmix load and single-Put writers, with worker 0 — the
	// auxiliary one — scanning the whole table instead.
	writers := kvmix.Config{Keys: scanStallKeys, Writes: 1}
	scanstall := of(writers, kvmix.Load, kvmix.Worker)
	scanstall.Aux = 1
	scanstall.Txn = func(db *ssidb.DB, iso ssidb.Isolation) func(int) harness.TxnFunc {
		write := kvmix.Worker(db, iso, writers)
		scan := func(*rand.Rand) error {
			return db.Run(iso, func(tx *ssidb.Txn) error {
				return tx.Scan(kvmix.Table, nil, nil, func(k, v []byte) bool { return true })
			})
		}
		return func(w int) harness.TxnFunc {
			if w == 0 {
				return scan
			}
			return write
		}
	}

	return []Row{
		bank(sb).figure(1, "SmallBank, page locking, no log flush, high contention",
			"SSI ≈ SI, both far above S2PL (10x at MPL 20); unsafe errors dominate SSI aborts", bdb(0)),
		bank(sb).figure(2, "SmallBank, log flushed on commit",
			"throughput climbs with MPL (group commit); S2PL falls behind from deadlock stalls", bdb(s.Flush)),
		bank(sbComplex).figure(3, "SmallBank, flush, 10 ops per transaction",
			"same shape as 6.2: the workload stays I/O-bound", bdb(s.Flush)),
		bank(sbLow).figure(4, "SmallBank, flush, 10x data (low contention)",
			"SI ≈ S2PL; SSI pays 10-15% from page-level false positives", bdb(s.Flush)),
		bank(sbComplexLow).figure(5, "SmallBank, flush, complex + low contention",
			"like 6.3 with smaller gaps", bdb(s.Flush)),
		si(10, 1).figure(6, "sibench, 10 items, 1 query per update",
			"SI ahead; SSI pays lock-manager overhead; S2PL worst under contention", ssidb.Options{}),
		si(100, 1).figure(7, "sibench, 100 items, 1 query per update",
			"gap between SI and SSI narrows; S2PL limited by read-write blocking", ssidb.Options{}),
		si(1000, 1).figure(8, "sibench, 1000 items, 1 query per update",
			"scan CPU dominates; SSI between SI and S2PL", ssidb.Options{}),
		si(10, 10).figure(9, "sibench, 10 items, 10 queries per update",
			"query-mostly: levels closer; S2PL still trails at high MPL", ssidb.Options{}),
		si(100, 10).figure(10, "sibench, 100 items, 10 queries per update", "as 6.9", ssidb.Options{}),
		si(1000, 10).figure(11, "sibench, 1000 items, 10 queries per update",
			"as 6.9 with scan CPU dominating", ssidb.Options{}),
		tp(1, false, true, false).figure(12, "TPC-C++, W=1, skip year-to-date updates",
			"SSI within ~10% of SI; S2PL behind once contention bites", ssidb.Options{}),
		tp(w, false, false, false).figure(13, "TPC-C++, W=10, full updates",
			"w_ytd hotspot serialises Payments; levels compressed", ssidb.Options{}),
		tp(w, false, true, false).figure(14, "TPC-C++, W=10, skip year-to-date updates",
			"hotspot removed: SI and SSI pull ahead of S2PL", ssidb.Options{}),
		tp(w, true, false, false).figure(15, "TPC-C++, W=10, tiny scaling (high contention)",
			"SSI tracks SI; S2PL suffers read-write blocking", ssidb.Options{}),
		tp(w, true, true, false).figure(16, "TPC-C++, tiny scaling, skip year-to-date updates",
			"largest SI/SSI lead over S2PL among the standard mixes", ssidb.Options{}),
		tp(w, false, false, true).figure(17, "TPC-C++ Stock Level mix, W=10",
			"multiversion levels beat S2PL decisively: long scans block New Orders under locking", ssidb.Options{}),
		tp(w, true, false, true).figure(18, "TPC-C++ Stock Level mix, tiny scaling",
			"as 6.17, amplified by contention", ssidb.Options{}),

		of(kvmix.DefaultConfig(), kvmix.Load, kvmix.Worker).probe("kvmix",
			"uniform kvmix (4 reads + 2 writes over 10k keys) by lock-table shard count",
			"conflicts ≈ 0: commits/s tracks begin/lock/commit; shards=1 is the paper's single lock-table latch", shardAxis, lockShards),
		of(kvmix.HotConfig(), kvmix.Load, kvmix.Worker).probe("kvmix-hot",
			"hot-key kvmix (half of all point ops on a 16-key hot set) by lock-table shard count",
			"the conflict path is live: rw-edges, unsafe aborts and lock waits at every MPL ≥ 8", shardAxis, lockShards),
		of(kvmix.ReadHeavyConfig(), kvmix.Load, kvmix.Worker).probe("kvmix-readheavy",
			"read-heavy kvmix (12 reads, a 16-key scan, 1 write) by row-store partition count",
			"shards is Options.TableShards: 1 is the single-tree single-latch store", shardAxis, tableShards),
		of(kvmix.ReadMostlyConfig(), kvmix.Load, kvmix.Worker).probe("kvmix-readmostly",
			"read-mostly kvmix (90% pure readers, declared read-only) by lock-table shard count",
			"ROSafePromotions and ROSIReadSkips must move: declared readers drop SIREADs on safe snapshots", shardAxis, lockShards),
		scanstall.probe("scanstall",
			fmt.Sprintf("full-table scans of %d keys (the aux worker) beside MPL single-Put writers, by row-store partition count", scanStallKeys),
			"writer p99 must track a scan round, not the scan; aux/s is completed scans per second", shardAxis, tableShards),
		bank(sb).probe("smallbank", "SmallBank (1000 accounts, row locking) by lock-table shard count",
			"five mixed programs incl. the WriteCheck pivot that makes plain SI non-serializable (thesis §5.1)", shardAxis, lockShards),
		programs(sb, smallbank.Load, func(db *ssidb.DB) (*ssidb.ProgramReport, error) { return smallbank.Register(db, true) }, smallbank.ProgramWorker).
			probe("smallbank-programs", "SmallBank through registered programs",
				"robust after the automatic Bal→WC promotion: ProgramSIRuns == ProgramRuns, against smallbank at SSI", shardAxis, lockShards),
		of(tiny, tpcc.Load, tpcc.Worker).probe("tpcc", "TPC-C (W=1, tiny scaling, standard mix) by lock-table shard count",
			"the thesis's robust workload: serializable even at plain SI (Fekete et al., thesis fig 2.8)", shardAxis, lockShards),
		programs(tiny, tpcc.Load, tpcc.Register, tpcc.ProgramWorker).
			probe("tpcc-programs", "TPC-C through registered programs",
				"robust as declared: every transaction at plain SI, against tpcc at SSI — the gap is what the proof saves", shardAxis, lockShards),

		bank(sb).probe("ablation-basic-detector", "SmallBank under the boolean-flag detector of §3.2",
			"against smallbank: same throughput order, several times the unsafe aborts", nil, fixed(ssidb.Options{Detector: ssidb.DetectorBasic})),
		of(mixed, sibench.Load, func(db *ssidb.DB, iso ssidb.Isolation, cfg sibench.Config) harness.TxnFunc {
			return func(r *rand.Rand) error {
				if r.Intn(cfg.QueriesPerUpdate+1) < cfg.QueriesPerUpdate {
					return db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
						_, err := sibench.Query(tx)
						return err
					})
				}
				return db.Run(iso, func(tx *ssidb.Txn) error { return sibench.Update(tx, uint32(r.Intn(cfg.Items))) })
			}
		}).probe("ablation-queries-at-si", "sibench (100 items, 10 queries per update) with the queries at plain SI (§3.8)",
			"against fig6.10: the queries' SIREAD traffic is gone", nil, fixed(ssidb.Options{})),
		bank(sb).probe("ablation-page", "SmallBank under page locking (10 keys a page), default detector",
			"against smallbank: fewer lock-table entries, more false conflicts", nil, fixed(ssidb.Options{Granularity: ssidb.GranularityPage, PageMaxKeys: 10})),

		remoteKvmix("remote-kvmix", "uniform kvmix over the wire, one batched round trip per transaction", kvmix.DefaultConfig()),
		remoteKvmix("remote-kvmix-hot", "hot-key kvmix over the wire — the thrashing-prone mix admission control exists for", kvmix.HotConfig()),
		remoteSmallbank(sb),
	}
}
