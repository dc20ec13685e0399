// Command benchmark is the repository's performance benchmark: five
// closed-loop workloads against the ssidb engine, measured end to end with
// tracing off, and — in a separate traced run — layer by layer. README.md in
// this directory explains every workload, metric and design choice.
//
//	go build -o benchmark/out/benchmark ./benchmark
//	benchmark/out/benchmark                                   # every workload, end-to-end metrics
//	benchmark/out/benchmark -workload bank-hot -trace 1       # per-layer metrics of one workload
//	benchmark/out/benchmark -compare old.json new.json        # regression verdicts
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric. gated end-to-end metrics are the ones
// BENCHMARK.json lists and a single-workload run's result line carries.
type metricDef struct {
	name, unit string
	gated      bool
}

// endToEnd are the metrics of an untraced run, all measured, printed,
// recorded and compared. The time-based ones are not gated: between runs of
// identical code on the reference box they scatter by more than any bound a
// gate may use (NOISE.md), and a gate that fires on noise rejects good
// changes. failed_frac is printed with them but is no metricDef: it is 0 on
// every healthy run — a relative bound on 0 gates nothing — and travels as
// the result's attempted and failed counts.
var endToEnd = []metricDef{
	{"commits_per_s", "1/s", false},
	{"txn_p99_us", "us", false},
	{"attempts_per_commit", "ratio", true},
	{"cpu_us_per_commit", "us", false},
	{"alloc_bytes_per_commit", "B", true},
	{"live_heap_mib", "MiB", true},
	{"setup_s", "s", true},
}

// perLayer are the metrics of a traced run, named after the repo's packages.
// BENCHMARK.json lists them all; they have no bounds.
var perLayer = []metricDef{
	{"ssidb.begin_us_per_txn", "us", true},
	{"ssidb.read_us_per_txn", "us", true},
	{"ssidb.write_us_per_txn", "us", true},
	{"ssidb.scan_us_per_txn", "us", true},
	{"ssidb.commit_us_per_txn", "us", true},
	{"ssidb.retry_us_per_commit", "us", true},
	{"ssidb.unsafe_per_commit", "ratio", true},
	{"ssidb.write_conflict_per_commit", "ratio", true},
	{"ssidb.deadlock_per_commit", "ratio", true},
	{"ssidb.glue_us_per_txn", "us", true},
	{"ssidb.ssi_over_si", "ratio", true},
	{"trace.overhead_frac", "ratio", true},
	{"lock.siread_acquire_ns", "ns", true},
	{"lock.x_acquire_ns", "ns", true},
	{"lock.siread_batch_ns_per_key", "ns", true},
	{"lock.release_ns_per_lock", "ns", true},
	{"lock.waits_per_commit", "ratio", true},
	{"lock.parks_per_commit", "ratio", true},
	{"lock.wait_us_per_commit", "us", true},
	{"core.begin_commit_ns", "ns", true},
	{"core.mark_conflict_ns", "ns", true},
	{"core.abort_early_ns", "ns", true},
	{"mvcc.read_ns", "ns", true},
	{"mvcc.write_ns", "ns", true},
	{"mvcc.scan_ns_per_row", "ns", true},
	{"mvcc.vacuum_runs_per_kcommit", "ratio", true},
	{"mvcc.versions_pruned_per_commit", "ratio", true},
	{"btree.get_ns", "ns", true},
	{"btree.insert_ns", "ns", true},
	{"btree.iter_ns_per_key", "ns", true},
	{"wal.append_ns", "ns", true},
	{"wal.commit_wait_us", "us", true},
	{"wal.bytes_per_commit", "B", true},
	{"wal.fsyncs_per_commit", "ratio", true},
	{"wal.checkpoints_per_run", "count", true},
	{"wal.replay_us_per_record", "us", true},
	{"wal.sim1ms_batch_at_8", "ratio", true},
	{"server.ping_rtt_us", "us", true},
	{"server.txn_rtt_us", "us", true},
	{"server.overhead_us_per_txn", "us", true},
	{"server.admission_wait_us_per_txn", "us", true},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // length of the measured phase of an untraced run
	trace   bool
	outDir  string // where span files go
	sizes   sizes
	stdout  io.Writer

	walRoot string // parent of every temporary directory
	walFS   string // "tmpfs" or "disk"

	mu       sync.Mutex
	tempDirs []string
}

// tempDir creates a directory under walRoot and remembers it, so the
// watchdog and the signal handler can remove it on paths that skip defers.
func (c *config) tempDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(c.walRoot, "ssibench-"+prefix)
	if err != nil {
		return "", fmt.Errorf("temporary directory: %w", err)
	}
	c.mu.Lock()
	c.tempDirs = append(c.tempDirs, dir)
	c.mu.Unlock()
	return dir, nil
}

func (c *config) removeTempDirs() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.tempDirs {
		os.RemoveAll(d)
	}
	c.tempDirs = nil
}

const tmpfsMagic = 0x01021994

// chooseWALRoot picks where durable databases live. The sandbox disk's
// fdatasync dominates and drifts (README.md, fact iv), so a memory-backed
// file system is preferred: it leaves the WAL's software path. Without a
// usable /dev/shm the directory is created next to the span files, inside
// the checkout.
func (c *config) chooseWALRoot(flagDir string) error {
	root := flagDir
	if root == "" {
		var st syscall.Statfs_t
		if syscall.Statfs("/dev/shm", &st) == nil && st.Type == tmpfsMagic && st.Bavail*uint64(st.Bsize) >= 64<<20 {
			if probe, err := os.MkdirTemp("/dev/shm", "ssibench-probe-"); err == nil {
				os.Remove(probe)
				root = "/dev/shm"
			}
		}
	}
	if root == "" {
		root = c.outDir
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("wal directory: %w", err)
	}
	var st syscall.Statfs_t
	c.walRoot, c.walFS = root, "disk"
	if syscall.Statfs(root, &st) == nil && st.Type == tmpfsMagic {
		c.walFS = "tmpfs"
	}
	return nil
}

func workloadNamed(sz sizes, name string) *workload {
	for _, w := range workloads(sz) {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runOne runs one workload in the configured mode and prints its metrics.
func runOne(w *workload, cfg *config) (*result, error) {
	mode, defs, run := "end-to-end", endToEnd, runUntraced
	if cfg.trace {
		mode, defs, run = "per-layer", perLayer, runTraced
	}
	n, winLen := windowsFor(cfg.seconds)
	fmt.Fprintf(cfg.stdout, "== %s: %s, seed %d, %d closed-loop workers, GOMAXPROCS %d, %d windows of %v\n",
		w.name, mode, cfg.seed, workers(), runtime.GOMAXPROCS(0), n, winLen)
	res, err := run(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for _, d := range defs {
		note := ""
		if !d.gated {
			note = " (not gated)"
		}
		fmt.Fprintf(cfg.stdout, "%s %s %.6g %s%s\n", w.name, d.name, res.Metrics[d.name], d.unit, note)
	}
	for _, k := range sortedKeys(res.Info) {
		fmt.Fprintf(cfg.stdout, "%s info %s %.6g\n", w.name, k, res.Info[k])
	}
	if len(res.Windows) > 0 {
		fmt.Fprintf(cfg.stdout, "%s info commits_per_s by window %.0f\n", w.name, res.Windows)
		fmt.Fprintf(cfg.stdout, "%s info txn_p99_us by window %.0f\n", w.name, res.WindowP99)
		fmt.Fprintf(cfg.stdout, "%s info cpu_us_per_commit by window %.1f\n", w.name, res.WindowCPU)
	}
	if res.WALFS != "" {
		fmt.Fprintf(cfg.stdout, "%s info wal_fs=%s\n", w.name, res.WALFS)
	}
	failedFrac := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(cfg.stdout, "%s failed_frac %.6g ratio (not gated; attempted %d, failed %d)\n", w.name, failedFrac, res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Fprintf(cfg.stdout, "%s FAILED %s\n", w.name, p)
	}
	return res, nil
}

// resultLine is the machine-readable last line of a single-workload run:
// the counts and every gated metric.
func resultLine(res *result, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, map[string]value{}}
	for _, d := range defs {
		if !d.gated {
			continue
		}
		v := res.Metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no such number; the printed lines above show it as measured
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	b, _ := json.Marshal(out) // finite numbers and strings cannot fail to marshal
	return string(b)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name     = flag.String("workload", "all", "workload to run: "+workloadList()+" or all")
		seed     = flag.Int64("seed", 1, "workload seed; worker i draws from seed*1000+i")
		seconds  = flag.Float64("seconds", 12, "length of the measured phase")
		trace    = flag.String("trace", "0", "1 runs the traced, per-layer mode")
		walDir   = flag.String("waldir", "", "parent directory for durable databases (default: /dev/shm if usable, else -out)")
		outDir   = flag.String("out", "benchmark/out", "directory for span files")
		record   = flag.String("record", "", "append this invocation's results to a JSON results file")
		commit   = flag.String("commit", "", "commit hash to store in a new -record file")
		compare  = flag.Bool("compare", false, "compare two -record files: -compare old.json new.json")
		boundsIn = flag.String("bounds", "BENCHMARK.json", "file whose end_to_end bounds -compare applies")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(os.Stdout, *boundsIn, flag.Arg(0), flag.Arg(1))
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil || *seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name|all] [-seed n] [-seconds s] [-trace 0|1]")
		return 2
	}
	cfg := &config{seed: *seed, seconds: *seconds, trace: traced, outDir: *outDir, sizes: fullSizes, stdout: os.Stdout}
	var todo []*workload
	for _, w := range workloads(cfg.sizes) {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q; have %s\n", *name, workloadList())
		return 2
	}
	if err := cfg.chooseWALRoot(*walDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// A run that overshoots its plan by half is hung: give up loudly rather
	// than sit on the caller's clock. The plan allows 90 s per workload on
	// top of the measured seconds: set-ups, checks and probes take about 10 s
	// with the WAL in memory and several times that on a disk.
	limit := time.Duration(float64(len(todo)) * 1.5 * (*seconds + 90) * float64(time.Second))
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: still running after %v, giving up\n", limit)
		cfg.removeTempDirs()
		os.Exit(2)
	})
	defer watchdog.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cfg.removeTempDirs()
		os.Exit(130)
	}()
	defer cfg.removeTempDirs()

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	status := 0
	var results []*result
	for _, w := range todo {
		res, err := runOne(w, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		results = append(results, res)
		if !res.Correct {
			status = 1
		}
	}
	if *record != "" {
		if err := appendRecord(*record, *commit, cfg, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	// One line per workload; a single-workload run therefore ends with the
	// result object its caller parses.
	for _, res := range results {
		fmt.Fprintln(cfg.stdout, resultLine(res, defs))
	}
	return status
}

func workloadList() string {
	var names []string
	for _, w := range workloads(fullSizes) {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// recordDoc is a -record file: the conditions of a set of runs and their
// raw results. -compare reads two of them.
type recordDoc struct {
	Command    []string  `json:"command"`
	Go         string    `json:"go"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	WALFS      string    `json:"wal_fs"`
	Commit     string    `json:"commit"`
	Seconds    float64   `json:"seconds"`
	Runs       []*result `json:"runs"`
}

func readRecord(path string) (*recordDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &recordDoc{}
	if err := json.Unmarshal(b, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

func appendRecord(path, commit string, cfg *config, results []*result) error {
	doc, err := readRecord(path)
	if errors.Is(err, os.ErrNotExist) {
		doc = &recordDoc{
			Command: os.Args, Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			WALFS: cfg.walFS, Commit: commit, Seconds: cfg.seconds,
		}
	} else if err != nil {
		return err
	}
	doc.Runs = append(doc.Runs, results...)
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
