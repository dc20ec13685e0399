// Command ssibench regenerates the figures of the paper's evaluation
// chapter: for each figure it sweeps the multiprogramming level over the
// paper's axis (1..50) at the three concurrency controls (SI, Serializable
// SI, S2PL) and prints the throughput series plus the abort breakdown —
// the same rows the thesis plots.
//
// Usage:
//
//	ssibench                          # every figure, quick scale
//	ssibench -figure 6.1,6.8          # selected figures
//	ssibench -paper-scale             # thesis data volumes (slow)
//	ssibench -duration 2s -trials 3   # longer, with confidence intervals
//	ssibench -mpl 1,10,50 -csv out.csv
//	ssibench -scaling                 # shard-count × MPL scaling sweep
//	ssibench -scaling -contention     # hot-key kvmix: the conflict path
//	ssibench -scaling -readonly       # read-mostly mix, readers declared RO
//	ssibench -scaling -tpcc           # TPC-C mix (tiny scaling, W=1)
//	ssibench -scaling -tpcc -programs # TPC-C via registered programs: plain SI
//	ssibench -scaling -json           # also write BENCH_<name>.json
//
// The -scaling mode goes beyond the paper: it sweeps the lock-table shard
// count (1 = the paper's single latch, up to GOMAXPROCS-scaled) against the
// multiprogramming level on the low-conflict kvmix workload, showing how
// the sharded concurrency-control core scales where the figure workloads
// measure contention behaviour. -contention switches the sweep to the
// hot-key kvmix mix (kvmix.HotConfig), whose hot-set collisions put real
// traffic on the SSI conflict-marking and lock-blocking paths that uniform
// kvmix never exercises. -json writes each run's results as a
// machine-readable BENCH_<name>.json next to the human-readable table, so
// CI can archive and diff performance trajectories.
//
// -programs (with -smallbank or -tpcc) registers the workload's declared
// transaction programs and drives every transaction through RunProgram, so
// the engine's robustness analysis — not the -iso flag — picks the
// isolation level: TPC-C is robust as declared and runs at plain SI;
// SmallBank becomes robust after the automatic PromoteBW remedy and also
// runs at plain SI. Comparing a -programs sweep against the same workload
// at -iso SSI prices what the static proof saves at runtime.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssi/internal/figures"
	"ssi/internal/harness"
	"ssi/internal/workload/kvmix"
	"ssi/internal/workload/smallbank"
	"ssi/internal/workload/tpcc"
	"ssi/ssidb"
)

func main() {
	var (
		figureList = flag.String("figure", "all", "comma-separated figure ids (e.g. 6.1,6.12) or 'all'")
		duration   = flag.Duration("duration", 500*time.Millisecond, "measurement duration per cell")
		warmup     = flag.Duration("warmup", 100*time.Millisecond, "warmup per cell")
		trials     = flag.Int("trials", 1, "trials per cell (for 95% confidence intervals)")
		mplList    = flag.String("mpl", "", "comma-separated MPL override (default: the paper's 1,2,3,5,10,20,50)")
		paperScale = flag.Bool("paper-scale", false, "use the thesis data volumes (W=10 standard TPC-C etc.)")
		csvPath    = flag.String("csv", "", "also write results as CSV to this file")
		scaling    = flag.Bool("scaling", false, "run the lock-shard scaling sweep instead of the paper figures")
		shardList  = flag.String("shards", "1,4,16,64", "comma-separated shard counts for -scaling")
		isoName    = flag.String("iso", "SSI", "isolation level for -scaling: SI, SSI or S2PL")
		waitStats  = flag.Bool("waitstats", false, "print lock-wait instrumentation per -scaling cell")
		storage    = flag.Bool("storage", false, "with -scaling: sweep the row-store partition count (Options.TableShards) on the read-heavy kvmix mix instead of the lock-table shard count")
		contention = flag.Bool("contention", false, "with -scaling: use the hot-key kvmix mix (half of all point ops on a 16-key hot set), exercising the conflict and blocking paths")
		scanStall  = flag.Bool("scanstall", false, "with -scaling: run continuous full-table scans over a 100k-key table against MPL point writers, sweeping Options.TableShards and reporting the writers' commit-latency percentiles alongside throughput — the writer-stall probe for the lock-coupled scan")
		readOnly   = flag.Bool("readonly", false, "with -scaling: use the read-mostly kvmix mix (90% pure-reader transactions declared read-only), exercising the declared-RO SSI fast path — no out-edge tracking, SIREAD-free reads on safe snapshots")
		smallBank  = flag.Bool("smallbank", false, "with -scaling: use the SmallBank benchmark (Alomari et al. 2008, thesis §5.1) instead of kvmix — five mixed read/write transaction programs whose WriteCheck pivot makes plain SI non-serializable")
		tpccFlag   = flag.Bool("tpcc", false, "with -scaling: use the TPC-C workload (tiny scaling, W=1, standard mix without CreditCheck) instead of kvmix — the thesis's robust workload, serializable even at plain SI")
		programs   = flag.Bool("programs", false, "with -scaling -smallbank or -tpcc: register the workload's declared transaction programs and run every transaction through RunProgram at the level the robustness analysis justifies (both sets prove robust, so plain SI); incompatible with -iso")
		durable    = flag.Bool("durable", false, "with -scaling: commit through a real on-disk WAL (group-commit fsyncs in a per-cell temp directory) instead of in-memory; cells report WAL batch counters")
		gcDelay    = flag.Duration("gcdelay", 0, "with -durable: group-commit flusher linger (Options.GroupCommitMaxDelay); 0 relies on natural batching while a sync is in flight")
		jsonOut    = flag.Bool("json", false, "also write machine-readable results as BENCH_<name>.json")
		serverAddr = flag.String("server", "", "run as a network client against a running ssiserver at this address instead of in-process; reports end-to-end tail latency (p50/p99/p999) and the server's admission counters")
		connCount  = flag.Int("connections", 64, "with -server: concurrent client connections (one worker per connection)")
	)
	flag.Parse()

	if *serverAddr != "" {
		// Client mode drives a separate server process; the in-process
		// sweep flags have no meaning here.
		for _, f := range []string{"figure", "paper-scale", "scaling", "shards", "mpl", "trials",
			"waitstats", "storage", "scanstall", "readonly", "durable", "gcdelay", "csv", "tpcc", "programs"} {
			if flagWasSet(f) {
				fmt.Fprintf(os.Stderr, "ssibench: -%s does not apply to -server\n", f)
				os.Exit(2)
			}
		}
		iso, ok := parseIso(*isoName)
		if !ok {
			fmt.Fprintf(os.Stderr, "ssibench: unknown isolation %q (want SI, SSI or S2PL)\n", *isoName)
			os.Exit(2)
		}
		if *contention && *smallBank {
			fmt.Fprintf(os.Stderr, "ssibench: -contention and -smallbank select different workloads; pick one\n")
			os.Exit(2)
		}
		runClient(clientConfig{
			addr: *serverAddr, conns: *connCount, iso: iso,
			hot: *contention, smallBank: *smallBank,
			duration: *duration, warmup: *warmup, jsonOut: *jsonOut,
		})
		return
	}
	if flagWasSet("connections") {
		fmt.Fprintf(os.Stderr, "ssibench: -connections requires -server\n")
		os.Exit(2)
	}

	if *scaling {
		// The figure-selection flags have no meaning here; reject them
		// loudly rather than run a long sweep that ignores them.
		for _, f := range []string{"figure", "paper-scale"} {
			if flagWasSet(f) {
				fmt.Fprintf(os.Stderr, "ssibench: -%s does not apply to -scaling\n", f)
				os.Exit(2)
			}
		}
		modes := 0
		for _, m := range []bool{*storage, *contention, *scanStall, *readOnly, *smallBank, *tpccFlag} {
			if m {
				modes++
			}
		}
		if modes > 1 {
			fmt.Fprintf(os.Stderr, "ssibench: -storage, -contention, -scanstall, -readonly, -smallbank and -tpcc select different scenarios; pick one\n")
			os.Exit(2)
		}
		if *programs {
			if !*smallBank && !*tpccFlag {
				fmt.Fprintf(os.Stderr, "ssibench: -programs requires -smallbank or -tpcc (the workloads with declared program sets)\n")
				os.Exit(2)
			}
			if flagWasSet("iso") {
				fmt.Fprintf(os.Stderr, "ssibench: -iso does not apply to -programs; the robustness analysis picks the level\n")
				os.Exit(2)
			}
		}
		if *scanStall && *durable {
			fmt.Fprintf(os.Stderr, "ssibench: -durable does not apply to -scanstall\n")
			os.Exit(2)
		}
		if flagWasSet("gcdelay") && !*durable {
			fmt.Fprintf(os.Stderr, "ssibench: -gcdelay requires -durable\n")
			os.Exit(2)
		}
		iso, ok := parseIso(*isoName)
		if !ok {
			fmt.Fprintf(os.Stderr, "ssibench: unknown isolation %q (want SI, SSI or S2PL)\n", *isoName)
			os.Exit(2)
		}
		if *scanStall {
			// One continuous window per cell: no trial repetition, and the
			// wait-stat columns belong to the blocking-lock sweeps. Reject
			// rather than silently ignore.
			for _, f := range []string{"trials", "waitstats"} {
				if flagWasSet(f) {
					fmt.Fprintf(os.Stderr, "ssibench: -%s does not apply to -scanstall\n", f)
					os.Exit(2)
				}
			}
			runScanStall(*shardList, *mplList, iso, *jsonOut, *duration, *warmup, openCSV(*csvPath))
			return
		}
		runScaling(scalingConfig{
			shardList: *shardList, mplList: *mplList, iso: iso,
			storage: *storage, hot: *contention, readOnly: *readOnly, smallBank: *smallBank,
			tpcc: *tpccFlag, programs: *programs,
			durable: *durable, gcDelay: *gcDelay,
			waitStats: *waitStats, jsonOut: *jsonOut,
			duration: *duration, warmup: *warmup, trials: *trials, csv: openCSV(*csvPath),
		})
		return
	}
	for _, f := range []string{"shards", "iso", "waitstats", "storage", "contention", "scanstall", "readonly", "smallbank", "tpcc", "programs", "durable", "gcdelay"} {
		// Symmetric with the check above: these flags only drive -scaling.
		if flagWasSet(f) {
			fmt.Fprintf(os.Stderr, "ssibench: -%s requires -scaling\n", f)
			os.Exit(2)
		}
	}

	scale := figures.QuickScale()
	if *paperScale {
		scale = figures.PaperScale()
	}

	var selected []harness.Figure
	if *figureList == "all" {
		selected = figures.All(scale)
	} else {
		for _, id := range strings.Split(*figureList, ",") {
			f, ok := figures.ByID(scale, strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "ssibench: unknown figure %q\n", id)
				os.Exit(2)
			}
			selected = append(selected, f)
		}
	}

	mpls := parseInts(*mplList, "mpl")

	csv := openCSV(*csvPath)
	if csv != nil {
		defer csv.Close()
	}

	runFigures(selected, mpls, *duration, *warmup, *trials, csv, *jsonOut)
}

// benchCell is one measured cell in the machine-readable output.
type benchCell struct {
	Iso       string  `json:"iso"`
	MPL       int     `json:"mpl"`
	Shards    int     `json:"shards,omitempty"`
	TPS       float64 `json:"tps"`
	CI95      float64 `json:"ci95,omitempty"`
	Commits   uint64  `json:"commits"`
	Deadlocks uint64  `json:"deadlocks"`
	Conflicts uint64  `json:"conflicts"`
	Unsafe    uint64  `json:"unsafe"`
	Timeouts  uint64  `json:"timeouts"`
	Rollbacks uint64  `json:"rollbacks"`

	// Lock-wait instrumentation for the measured window (scaling runs).
	LockWaits      uint64  `json:"lock_waits,omitempty"`
	LockSpinGrants uint64  `json:"lock_spin_grants,omitempty"`
	LockParks      uint64  `json:"lock_parks,omitempty"`
	LockWakeups    uint64  `json:"lock_wakeups,omitempty"`
	LockWaitMs     float64 `json:"lock_wait_ms,omitempty"`

	// Read-only path counters for the measured window (-readonly runs):
	// declared-RO begins, safe-snapshot promotions and SIREAD acquisitions
	// skipped by promoted transactions.
	ROBegins     uint64 `json:"ro_begins,omitempty"`
	ROPromotions uint64 `json:"ro_promotions,omitempty"`
	ROSkips      uint64 `json:"ro_siread_skips,omitempty"`

	// Program-registry counters for the measured window (-programs runs):
	// RunProgram executions, how many were admitted at plain SI, footprint
	// violations and escalation events. A robust run has ProgramSIRuns ==
	// ProgramRuns and zeros elsewhere.
	ProgramRuns         uint64 `json:"program_runs,omitempty"`
	ProgramSIRuns       uint64 `json:"program_si_runs,omitempty"`
	FootprintViolations uint64 `json:"footprint_violations,omitempty"`
	SDGEscalations      uint64 `json:"sdg_escalations,omitempty"`

	// WAL counters for the measured window (-durable runs). AvgBatchSize
	// above 1 is group commit amortising fsyncs across committers.
	Durable            bool    `json:"durable,omitempty"`
	WALAppends         uint64  `json:"wal_appends,omitempty"`
	GroupCommitBatches uint64  `json:"group_commit_batches,omitempty"`
	Fsyncs             uint64  `json:"fsyncs,omitempty"`
	AvgBatchSize       float64 `json:"avg_batch_size,omitempty"`

	// Writer-latency percentiles and scan counters (-scanstall runs): the
	// distribution of point-writer commit latencies while full-table scans
	// run continuously.
	WriterP50Us float64 `json:"writer_p50_us,omitempty"`
	WriterP99Us float64 `json:"writer_p99_us,omitempty"`
	WriterMaxUs float64 `json:"writer_max_us,omitempty"`
	Scans       uint64  `json:"scans,omitempty"`
	ScanAvgMs   float64 `json:"scan_avg_ms,omitempty"`

	// Network client mode (-server): end-to-end commit-latency percentiles
	// measured at the client across all connections, client-side retries,
	// and the server's admission-controller deltas for the window. MPL here
	// is the server's configured cap (0 = uncapped).
	Connections       int     `json:"connections,omitempty"`
	P50Us             float64 `json:"p50_us,omitempty"`
	P99Us             float64 `json:"p99_us,omitempty"`
	P999Us            float64 `json:"p999_us,omitempty"`
	MaxUs             float64 `json:"max_us,omitempty"`
	Retries           uint64  `json:"retries,omitempty"`
	Admitted          uint64  `json:"admitted,omitempty"`
	QueueFullRefusals uint64  `json:"queue_full_refusals,omitempty"`
	QueueTimeouts     uint64  `json:"queue_timeouts,omitempty"`
	QueueWaitMs       float64 `json:"queue_wait_ms,omitempty"`
}

// benchDoc is the BENCH_<name>.json document.
type benchDoc struct {
	Kind     string      `json:"kind"` // "scaling" or "figure"
	Name     string      `json:"name"`
	Title    string      `json:"title,omitempty"`
	Axis     string      `json:"axis,omitempty"`
	Workload string      `json:"workload,omitempty"`
	Duration string      `json:"duration"`
	Trials   int         `json:"trials"`
	Cells    []benchCell `json:"cells"`
}

// writeJSON writes doc as BENCH_<name>.json in the working directory.
func writeJSON(doc benchDoc) {
	path := "BENCH_" + doc.Name + ".json"
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssibench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "ssibench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("   wrote %s\n", path)
}

// cellFromResult converts a harness result (plus optional wait-stat deltas)
// into the JSON cell form.
func cellFromResult(res harness.Result, shards int, st *ssidb.Stats) benchCell {
	c := benchCell{
		Iso:       res.Isolation.String(),
		MPL:       res.MPL,
		Shards:    shards,
		TPS:       res.TPS,
		CI95:      res.TPSCI95,
		Commits:   res.Commits,
		Deadlocks: res.Deadlocks,
		Conflicts: res.Conflicts,
		Unsafe:    res.Unsafe,
		Timeouts:  res.Timeouts,
		Rollbacks: res.Rollbacks,
	}
	if st != nil {
		c.LockWaits = st.LockWaits
		c.LockSpinGrants = st.LockSpinGrants
		c.LockParks = st.LockParks
		c.LockWakeups = st.LockWakeups
		c.LockWaitMs = float64(st.LockWaitTime) / float64(time.Millisecond)
		c.ROBegins = st.ROBegins
		c.ROPromotions = st.ROSafePromotions
		c.ROSkips = st.ROSIReadSkips
		c.ProgramRuns = st.ProgramRuns
		c.ProgramSIRuns = st.ProgramSIRuns
		c.FootprintViolations = st.FootprintViolations
		c.SDGEscalations = st.SDGEscalations
		c.WALAppends = st.WALAppends
		c.GroupCommitBatches = st.GroupCommitBatches
		c.Fsyncs = st.Fsyncs
		c.AvgBatchSize = st.AvgBatchSize
	}
	return c
}

// flagWasSet reports whether the named flag was given on the command line.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// openCSV creates the CSV output file, or returns nil for the empty path.
func openCSV(path string) *os.File {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssibench: %v\n", err)
		os.Exit(1)
	}
	return f
}

func runFigures(selected []harness.Figure, mpls []int, duration, warmup time.Duration, trials int, csv *os.File, jsonOut bool) {
	opts := harness.Options{Duration: duration, Warmup: warmup, Trials: trials, Seed: 1}
	for _, f := range selected {
		if mpls != nil {
			f.MPLs = mpls
		}
		start := time.Now()
		results := harness.RunFigure(f, opts)
		harness.PrintFigure(os.Stdout, f, results)
		fmt.Printf("   (measured in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if csv != nil {
			harness.CSV(csv, f, results)
		}
		if jsonOut {
			doc := benchDoc{
				Kind:     "figure",
				Name:     "fig" + strings.ReplaceAll(f.ID, ".", "_"),
				Title:    f.Title,
				Duration: duration.String(),
				Trials:   trials,
			}
			for _, iso := range f.Isolations {
				for _, res := range results[iso] {
					doc.Cells = append(doc.Cells, cellFromResult(res, 0, nil))
				}
			}
			writeJSON(doc)
		}
	}
}

// parseIso maps the -iso flag to an isolation level.
func parseIso(name string) (ssidb.Isolation, bool) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "SI":
		return ssidb.SnapshotIsolation, true
	case "SSI":
		return ssidb.SerializableSI, true
	case "S2PL":
		return ssidb.S2PL, true
	}
	return 0, false
}

// scalingConfig carries the -scaling run parameters.
type scalingConfig struct {
	shardList, mplList string
	iso                ssidb.Isolation
	storage            bool // axis = Options.TableShards (read-heavy kvmix)
	hot                bool // hot-key kvmix
	readOnly           bool // read-mostly kvmix, readers declared RO
	smallBank          bool // SmallBank instead of kvmix
	tpcc               bool // TPC-C instead of kvmix
	programs           bool // drive via the registered-program machinery
	durable            bool // real on-disk WAL per cell
	gcDelay            time.Duration
	waitStats, jsonOut bool
	duration, warmup   time.Duration
	trials             int
	csv                *os.File
}

// runScaling sweeps a shard-count axis against MPL at the selected isolation
// level and prints a throughput matrix: rows are MPL, columns are shard
// counts.
//
// The default axis is the lock-table shard count (shards=1 is the paper's
// single lock-table latch) on uniform kvmix. With storage it is instead the
// row store's partition count (Options.TableShards, tshards=1 being the
// single-tree store) on the read-heavy kvmix mix, whose point reads and
// merged scans exercise the partitioned B+trees rather than the lock
// manager. With hot the workload is the hot-key mix (kvmix.HotConfig): half
// of all point operations land on a 16-key hot set, so transactions overlap
// constantly and the numbers track the SSI conflict core (or S2PL's
// blocking) rather than the uncontended engine paths. With smallBank the
// workload is SmallBank (thesis §5.1), whose five mixed programs include the
// WriteCheck pivot that makes plain SI non-serializable.
//
// With durable every cell commits through a real segmented WAL in a fresh
// temp directory — group-commit fsyncs on actual files — and reports the
// window's WAL counters; comparing a sweep with and without -durable prices
// durability at each MPL, and AvgBatchSize climbing with MPL is group commit
// doing the amortising.
//
// With waitStats each cell is followed by the lock manager's wait
// instrumentation — how the blocked acquires resolved (spin grant versus
// park), targeted wakeups per park, and cumulative parked time — which is
// the number to watch for S2PL, whose blocking waits are the contended path
// the spin-then-park redesign exists for.
func runScaling(c scalingConfig) {
	shards := parseInts(c.shardList, "shards")
	mpls := parseInts(c.mplList, "mpl")
	if mpls == nil {
		mpls = []int{1, 2, 4, 8, 16, 32, 64}
	}
	axis, col := "lock", "shards"
	workload := "kvmix-uniform"
	cfg := kvmix.DefaultConfig()
	sbCfg := smallbank.DefaultConfig()
	tpCfg := tpcc.DefaultConfig()
	tpCfg.Tiny = true
	switch {
	case c.storage:
		axis, col = "table", "tshards"
		workload = "kvmix-readheavy"
		cfg = kvmix.ReadHeavyConfig()
	case c.hot:
		axis = "lock-hot"
		workload = "kvmix-hot"
		cfg = kvmix.HotConfig()
	case c.readOnly:
		axis = "lock-readonly"
		workload = "kvmix-readmostly"
		cfg = kvmix.ReadMostlyConfig()
	case c.smallBank:
		axis = "lock-smallbank"
		workload = "smallbank"
	case c.tpcc:
		axis = "lock-tpcc"
		workload = "tpcc"
	}
	var report *ssidb.ProgramReport
	if c.programs {
		axis += "-programs"
		workload += "-programs"
		// Pre-flight the analysis on a throwaway DB so the header, CSV and
		// JSON carry the justified level rather than the -iso default; every
		// cell re-registers on its own DB and gets the identical verdict.
		pre := ssidb.Open(ssidb.Options{})
		var err error
		if c.smallBank {
			report, err = smallbank.Register(pre, true)
		} else {
			report, err = tpcc.Register(pre)
		}
		pre.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssibench: %v\n", err)
			os.Exit(1)
		}
		c.iso = report.Level
	}
	if c.csv != nil {
		defer c.csv.Close()
		fmt.Fprintf(c.csv, "axis,iso,mpl,shards,durable,tps,ci95,commits,deadlocks,conflicts,unsafe,timeouts,lockwaits,spingrants,parks,wakeups,waitms,robegins,ropromotions,roskips,walappends,gcbatches,fsyncs,avgbatch,progruns,progsiruns,fpviolations,escalations\n")
	}

	switch {
	case c.storage:
		fmt.Printf("== Row-store partition scaling sweep (read-heavy kvmix, %s) ==\n", c.iso)
		fmt.Println("   commits/s by MPL (rows) and table partition count (columns);")
		fmt.Println("   tshards=1 is the single-tree single-latch store.")
	case c.hot:
		fmt.Printf("== Hot-key contention sweep (hot kvmix, %s) ==\n", c.iso)
		fmt.Println("   commits/s by MPL (rows) and lock shard count (columns);")
		fmt.Printf("   %.0f%% of point ops hit a %d-key hot set: the conflict path is live.\n",
			cfg.HotProb*100, cfg.HotKeys)
	case c.readOnly:
		fmt.Printf("== Read-mostly declared-RO sweep (read-mostly kvmix, %s) ==\n", c.iso)
		fmt.Println("   commits/s by MPL (rows) and lock shard count (columns);")
		fmt.Printf("   %.0f%% of transactions are pure readers declared read-only.\n",
			cfg.ROFrac*100)
	case c.smallBank:
		fmt.Printf("== SmallBank sweep (%d accounts, %s) ==\n", sbCfg.Accounts, c.iso)
		fmt.Println("   commits/s by MPL (rows) and lock shard count (columns);")
		fmt.Println("   five mixed programs incl. the WriteCheck pivot (thesis §5.1).")
	case c.tpcc:
		fmt.Printf("== TPC-C sweep (W=%d, tiny scaling, %s) ==\n", tpCfg.Warehouses, c.iso)
		fmt.Println("   commits/s by MPL (rows) and lock shard count (columns);")
		fmt.Println("   standard mix (no CreditCheck) — robust, serializable at plain SI (Fekete fig 2.8).")
	default:
		fmt.Printf("== Lock-shard scaling sweep (kvmix, %s) ==\n", c.iso)
		fmt.Println("   commits/s by MPL (rows) and lock shard count (columns);")
		fmt.Println("   shards=1 is the paper's single lock-table latch.")
	}
	if c.durable {
		fmt.Printf("   durable: real group-commit WAL per cell (linger %v).\n", c.gcDelay)
	}
	if report != nil {
		fmt.Printf("   programs: robust=%v -> every transaction via RunProgram at %s", report.Robust, report.Level)
		if len(report.Remedies) > 0 {
			fmt.Printf(" (remedies: %v)", report.Remedies)
		}
		fmt.Println()
	}
	fmt.Printf("%-6s", "MPL")
	for _, s := range shards {
		fmt.Printf("%14s", fmt.Sprintf("%s=%d", col, s))
	}
	fmt.Println()

	opts := harness.Options{Duration: c.duration, Warmup: c.warmup, Trials: c.trials, Seed: 1}
	name := fmt.Sprintf("scaling-%s-%s", axis, c.iso)
	if c.durable {
		name += "-durable"
	}
	doc := benchDoc{
		Kind:     "scaling",
		Name:     name,
		Axis:     axis,
		Workload: workload,
		Duration: c.duration.String(),
		Trials:   c.trials,
	}
	for _, mpl := range mpls {
		fmt.Printf("%-6d", mpl)
		var cellStats []ssidb.Stats
		for _, s := range shards {
			res, st := scalingCell(c, cfg, sbCfg, tpCfg, s, mpl, opts)
			cellStats = append(cellStats, st)
			cell := fmt.Sprintf("%.0f", res.TPS)
			if res.TPSCI95 > 0 {
				cell += fmt.Sprintf("±%.0f", res.TPSCI95)
			}
			fmt.Printf("%14s", cell)
			if c.csv != nil {
				fmt.Fprintf(c.csv, "%s,%s,%d,%d,%t,%.1f,%.1f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.1f,%d,%d,%d,%d,%d,%d,%.2f,%d,%d,%d,%d\n",
					axis, c.iso, mpl, s, c.durable, res.TPS, res.TPSCI95, res.Commits, res.Deadlocks, res.Conflicts, res.Unsafe,
					res.Timeouts, st.LockWaits, st.LockSpinGrants, st.LockParks, st.LockWakeups,
					float64(st.LockWaitTime)/float64(time.Millisecond),
					st.ROBegins, st.ROSafePromotions, st.ROSIReadSkips,
					st.WALAppends, st.GroupCommitBatches, st.Fsyncs, st.AvgBatchSize,
					st.ProgramRuns, st.ProgramSIRuns, st.FootprintViolations, st.SDGEscalations)
			}
			if c.jsonOut {
				jc := cellFromResult(res, s, &st)
				jc.Durable = c.durable
				doc.Cells = append(doc.Cells, jc)
			}
		}
		fmt.Println()
		if c.waitStats {
			for i, s := range shards {
				st := cellStats[i]
				fmt.Printf("       shards=%-4d waits=%-8d spin=%-8d parks=%-8d wakeups=%-8d timeouts=%-4d wait=%v\n",
					s, st.LockWaits, st.LockSpinGrants, st.LockParks, st.LockWakeups, st.LockTimeouts,
					st.LockWaitTime.Round(time.Millisecond))
			}
		}
		if c.durable {
			for i, s := range shards {
				st := cellStats[i]
				fmt.Printf("       shards=%-4d appends=%-8d batches=%-8d fsyncs=%-8d avgbatch=%.1f\n",
					s, st.WALAppends, st.GroupCommitBatches, st.Fsyncs, st.AvgBatchSize)
			}
		}
	}
	if c.jsonOut {
		writeJSON(doc)
	}
}

// scalingCell measures one (shard count, MPL) cell: open, load, run, close.
func scalingCell(c scalingConfig, cfg kvmix.Config, sbCfg smallbank.Config, tpCfg tpcc.Config, s, mpl int, opts harness.Options) (harness.Result, ssidb.Stats) {
	dbOpts := ssidb.Options{LockShards: s}
	if c.storage {
		dbOpts = ssidb.Options{TableShards: s}
	}
	var db *ssidb.DB
	if c.durable {
		// A fresh directory per cell: recovery replay from a previous cell's
		// log would pollute both the loaded state and the WAL counters.
		dir, err := os.MkdirTemp("", "ssibench-wal-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssibench: %v\n", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		dbOpts.GroupCommitMaxDelay = c.gcDelay
		db, err = ssidb.OpenDir(dir, dbOpts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssibench: %v\n", err)
			os.Exit(1)
		}
	} else {
		db = ssidb.Open(dbOpts)
	}
	defer db.Close()

	var worker harness.TxnFunc
	switch {
	case c.smallBank:
		if err := smallbank.Load(db, sbCfg); err != nil {
			fmt.Fprintf(os.Stderr, "ssibench: %v\n", err)
			os.Exit(1)
		}
		if c.programs {
			// Register after the (ad-hoc) load so the proof covers exactly
			// the measured traffic.
			if _, err := smallbank.Register(db, true); err != nil {
				fmt.Fprintf(os.Stderr, "ssibench: %v\n", err)
				os.Exit(1)
			}
			worker = smallbank.ProgramWorker(db, sbCfg)
		} else {
			worker = smallbank.Worker(db, c.iso, sbCfg)
		}
	case c.tpcc:
		if err := tpcc.Load(db, tpCfg); err != nil {
			fmt.Fprintf(os.Stderr, "ssibench: %v\n", err)
			os.Exit(1)
		}
		if c.programs {
			if _, err := tpcc.Register(db); err != nil {
				fmt.Fprintf(os.Stderr, "ssibench: %v\n", err)
				os.Exit(1)
			}
			worker = tpcc.ProgramWorker(db, tpCfg)
		} else {
			worker = tpcc.Worker(db, c.iso, tpCfg)
		}
	default:
		if err := kvmix.Load(db, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "ssibench: %v\n", err)
			os.Exit(1)
		}
		worker = kvmix.Worker(db, c.iso, cfg)
	}

	o := opts
	o.MPL = mpl
	// Report wait and WAL counters for the measured window only — the
	// cumulative DB counters also cover loading and warmup, which the
	// tps/commits columns exclude. With -trials > 1 the window is the last
	// trial's.
	var base ssidb.Stats
	o.OnMeasureStart = func() { base = db.StatsSnapshot() }
	res := harness.Run(worker, o)
	res.Isolation = c.iso
	return res, waitDelta(db.StatsSnapshot(), base)
}

// scanStallKeys is the -scanstall table width: wide enough that one full
// scan spans hundreds of lock-coupled rounds, the regime where the old
// hold-every-latch protocol stalled writers for the whole scan.
const scanStallKeys = 100000

// runScanStall sweeps the row-store partition count while one worker runs
// continuous full-table scans and MPL workers run single-Put transactions on
// uniformly random keys. Throughput alone hides a scan convoy (writers catch
// up between scans), so each cell also reports the writers' commit-latency
// distribution — p99 bounded by a scan *round*, not the scan, is the
// property the lock-coupled handoff exists for.
func runScanStall(shardList, mplList string, iso ssidb.Isolation, jsonOut bool, duration, warmup time.Duration, csv *os.File) {
	shards := parseInts(shardList, "shards")
	mpls := parseInts(mplList, "mpl")
	if mpls == nil {
		mpls = []int{1, 8, 32}
	}
	fmt.Printf("== Scan-stall sweep (full-table scans of %d keys vs point writers, %s) ==\n", scanStallKeys, iso)
	fmt.Println("   writer commits/s and p99 commit latency by MPL (rows) and table")
	fmt.Println("   partition count (columns); scans/s in parentheses.")
	if csv != nil {
		defer csv.Close()
		fmt.Fprintf(csv, "axis,iso,mpl,tshards,writer_tps,writer_p50_us,writer_p99_us,writer_max_us,scans,scan_avg_ms\n")
	}
	fmt.Printf("%-6s", "MPL")
	for _, s := range shards {
		fmt.Printf("%26s", fmt.Sprintf("tshards=%d", s))
	}
	fmt.Println()

	doc := benchDoc{
		Kind:     "scaling",
		Name:     fmt.Sprintf("scaling-scanstall-%s", iso),
		Axis:     "scanstall",
		Workload: "kvmix-scanstall",
		Duration: duration.String(),
		Trials:   1,
	}
	for _, mpl := range mpls {
		fmt.Printf("%-6d", mpl)
		for _, s := range shards {
			cell := scanStallCell(iso, s, mpl, duration, warmup)
			fmt.Printf("%26s", fmt.Sprintf("%.0f p99=%s (%.0f/s)",
				cell.TPS, time.Duration(cell.WriterP99Us*1e3).Round(time.Microsecond),
				float64(cell.Scans)/duration.Seconds()))
			if csv != nil {
				fmt.Fprintf(csv, "scanstall,%s,%d,%d,%.1f,%.1f,%.1f,%.1f,%d,%.2f\n",
					iso, mpl, s, cell.TPS, cell.WriterP50Us, cell.WriterP99Us, cell.WriterMaxUs, cell.Scans, cell.ScanAvgMs)
			}
			if jsonOut {
				doc.Cells = append(doc.Cells, cell)
			}
		}
		fmt.Println()
	}
	if jsonOut {
		writeJSON(doc)
	}
}

// scanStallCell measures one (partition count, MPL) cell.
func scanStallCell(iso ssidb.Isolation, tshards, mpl int, duration, warmup time.Duration) benchCell {
	db := ssidb.Open(ssidb.Options{TableShards: tshards})
	cfg := kvmix.Config{Keys: scanStallKeys, Reads: 0, Writes: 1}
	if err := kvmix.Load(db, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ssibench: %v\n", err)
		os.Exit(1)
	}

	var measuring, stop atomic.Bool
	var scans atomic.Uint64
	var scanTime atomic.Int64
	var wg sync.WaitGroup

	// The scanner: continuous full-table ordered scans.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			// Attribute by start time: a scan beginning in warmup must not
			// leak warmup milliseconds into scan_avg_ms, and one still in
			// flight at window end belongs to the window it started in.
			inWindow := measuring.Load()
			start := time.Now()
			err := db.Run(iso, func(tx *ssidb.Txn) error {
				return tx.Scan(kvmix.Table, nil, nil, func(k, v []byte) bool { return true })
			})
			if err != nil && !ssidb.IsAbort(err) {
				fmt.Fprintf(os.Stderr, "ssibench: scan: %v\n", err)
				os.Exit(1)
			}
			// Only completed scans count: an aborted attempt would inflate
			// scans/s and shrink scan_avg_ms, masking a scan regression.
			if inWindow && err == nil {
				scans.Add(1)
				scanTime.Add(int64(time.Since(start)))
			}
		}
	}()

	// The writers: single-Put transactions, each latency-sampled.
	samples := make([][]int64, mpl)
	var commits, dropped atomic.Uint64
	for w := 0; w < mpl; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)*104729 + 7))
			buf := make([]int64, 0, 1<<18)
			for !stop.Load() {
				start := time.Now()
				err := db.Run(iso, func(tx *ssidb.Txn) error {
					return tx.Put(kvmix.Table, kvmix.Key(r.Intn(scanStallKeys)), []byte("w"))
				})
				if err != nil && !ssidb.IsAbort(err) {
					fmt.Fprintf(os.Stderr, "ssibench: writer: %v\n", err)
					os.Exit(1)
				}
				if measuring.Load() && err == nil {
					commits.Add(1)
					if len(buf) < cap(buf) {
						buf = append(buf, int64(time.Since(start)))
					} else {
						dropped.Add(1)
					}
				}
			}
			samples[w] = buf
		}(w)
	}

	time.Sleep(warmup)
	measuring.Store(true)
	time.Sleep(duration)
	measuring.Store(false)
	stop.Store(true)
	wg.Wait()
	if n := dropped.Load(); n > 0 {
		// The per-writer sample buffers saturated: percentiles cover only
		// the window's prefix. Say so instead of biasing silently.
		fmt.Fprintf(os.Stderr, "ssibench: scanstall tshards=%d mpl=%d: %d commit latencies not sampled (buffers full); percentiles cover the window's start — use a shorter -duration\n", tshards, mpl, n)
	}

	var all []int64
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / 1e3 // µs
	}
	cell := benchCell{
		Iso:         iso.String(),
		MPL:         mpl,
		Shards:      tshards,
		TPS:         float64(commits.Load()) / duration.Seconds(),
		Commits:     commits.Load(),
		WriterP50Us: pct(0.50),
		WriterP99Us: pct(0.99),
		WriterMaxUs: pct(1.0),
		Scans:       scans.Load(),
	}
	if n := scans.Load(); n > 0 {
		cell.ScanAvgMs = float64(scanTime.Load()) / float64(n) / 1e6
	}
	return cell
}

// waitDelta returns after with its cumulative lock-wait counters rebased to
// the measured window that began at base.
func waitDelta(after, base ssidb.Stats) ssidb.Stats {
	after.LockWaits -= base.LockWaits
	after.LockSpinGrants -= base.LockSpinGrants
	after.LockParks -= base.LockParks
	after.LockWakeups -= base.LockWakeups
	after.LockTimeouts -= base.LockTimeouts
	after.LockWaitTime -= base.LockWaitTime
	after.ROBegins -= base.ROBegins
	after.ROSafePromotions -= base.ROSafePromotions
	after.RODeferredWaits -= base.RODeferredWaits
	after.ROSIReadSkips -= base.ROSIReadSkips
	after.ProgramRuns -= base.ProgramRuns
	after.ProgramSIRuns -= base.ProgramSIRuns
	after.FootprintViolations -= base.FootprintViolations
	after.SDGEscalations -= base.SDGEscalations
	after.WALAppends -= base.WALAppends
	after.GroupCommitBatches -= base.GroupCommitBatches
	after.Fsyncs -= base.Fsyncs
	if after.GroupCommitBatches > 0 {
		after.AvgBatchSize = float64(after.WALAppends) / float64(after.GroupCommitBatches)
	} else {
		after.AvgBatchSize = 0
	}
	return after
}

func parseInts(list, what string) []int {
	if list == "" {
		return nil
	}
	var out []int
	for _, s := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "ssibench: bad %s %q\n", what, s)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}
