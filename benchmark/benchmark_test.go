package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// smokeSizes shrink every workload so a run takes a fraction of a second.
var smokeSizes = sizes{
	kvRows: 4_000, bankAccounts: 1_000, warmup: 300, warmupLong: 100, setups: 2,
	check: 300, checkHot: 100, checkScan: 100, checkScanRows: 500,
	durableTail: 100, probe: 5 * time.Millisecond,
}

func smokeConfig(t *testing.T, trace bool, out *bytes.Buffer) *config {
	cfg := &config{seed: 7, seconds: 0.3, trace: trace, outDir: t.TempDir(), sizes: smokeSizes, stdout: out}
	if err := cfg.chooseWALRoot(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// settle waits for the goroutine count to return to base: the engine's
// vacuum sweeps and checkpoints are asynchronous and finish on their own
// shortly after the last transaction.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running, started with %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSmoke runs every workload in both modes at smoke size and checks what
// a run must leave behind: nothing but its output.
func TestSmoke(t *testing.T) {
	for _, trace := range []bool{false, true} {
		name, defs := "end-to-end", endToEnd
		if trace {
			name, defs = "per-layer", perLayer
		}
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var out bytes.Buffer
			cfg := smokeConfig(t, trace, &out)
			for _, w := range workloads(cfg.sizes) {
				res, err := runOne(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Errorf("%s: checks failed: %v", w.name, res.Problems)
				}
				var line struct {
					Correct   bool
					Attempted uint64
					Failed    uint64
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(resultLine(res, defs)), &line); err != nil {
					t.Fatalf("%s: result line: %v", w.name, err)
				}
				gated := 0
				for _, d := range defs {
					if d.gated {
						gated++
					}
				}
				if line.Attempted == 0 || len(line.Metrics) != gated {
					t.Errorf("%s: result line has attempted=%d and %d metrics, want >0 and %d", w.name, line.Attempted, len(line.Metrics), gated)
				}
				for _, d := range defs {
					if !strings.Contains(out.String(), w.name+" "+d.name+" ") {
						t.Errorf("output lacks %s %s", w.name, d.name)
					}
				}
				if !trace {
					for _, d := range defs {
						if v := res.Metrics[d.name]; !(v > 0) {
							t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, v)
						}
					}
				}
				if trace {
					if _, err := os.Stat(cfg.outDir + "/spans-" + w.name + ".csv"); err != nil {
						t.Errorf("%s: span file: %v", w.name, err)
					}
				}
			}
			if !strings.Contains(out.String(), "wal_fs=") {
				t.Error("output lacks wal_fs")
			}
			settle(t, base)
			if left, _ := os.ReadDir(cfg.walRoot); len(left) != 0 {
				t.Errorf("%d temporary directories left in %s, first %s", len(left), cfg.walRoot, left[0].Name())
			}
		})
	}
}

// TestWireTearDown checks that closing a wire instance stops the server: the
// port refuses connections and no goroutine is left.
func TestWireTearDown(t *testing.T) {
	base := runtime.NumGoroutine()
	var out bytes.Buffer
	cfg := smokeConfig(t, false, &out)
	w := workloadNamed(cfg.sizes, "kv-wire")
	in, _, err := setUp(w, cfg, nil, w.warmup)
	if err != nil {
		t.Fatal(err)
	}
	addr := in.srv.Addr().String()
	if err := in.close(); err != nil {
		t.Fatal(err)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Errorf("server at %s still accepts connections after close", addr)
	}
	settle(t, base)
}

// TestSameSeedSameInputs checks that a worker's transactions depend on the
// seed alone: two clients given the same transaction seed issue the same
// operations, whatever ran before.
func TestSameSeedSameInputs(t *testing.T) {
	w := workloadNamed(smokeSizes, "kv-wire")
	a, b := newWireOps(w.kv), newWireOps(w.kv)
	a.build(1)
	a.build(99)
	b.build(99)
	if len(a.ops) == 0 || len(a.ops) != len(b.ops) {
		t.Fatalf("op counts differ: %d and %d", len(a.ops), len(b.ops))
	}
	for i := range a.ops {
		if a.ops[i].Type != b.ops[i].Type || !bytes.Equal(a.ops[i].Key, b.ops[i].Key) {
			t.Fatalf("op %d differs: %+v and %+v", i, a.ops[i], b.ops[i])
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	ws := workloads(fullSizes)
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the program %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.gated {
			gated = append(gated, d)
		} else if !slices.ContainsFunc(ungatedBounds, func(b bound) bool { return b.Name == d.name }) {
			t.Errorf("%s is neither gated nor one of -compare's ungated metrics", d.name)
		}
	}
	same("end_to_end", doc.EndToEnd, gated)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, med, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || med != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, med, q3)
	}
	// statistics.quantiles([10, 20], n=4) extrapolates: [7.5, 15.0, 22.5]
	q1, med, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || med != 15 || q3 != 22.5 {
		t.Errorf("quartiles of two = %v %v %v, want 7.5 15 22.5", q1, med, q3)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h histogram
	for v := uint64(1); v <= 100_000; v++ {
		h.record(v * 10)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 1_000_000
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
	if h.max != 1_000_000 || h.n != 100_000 {
		t.Errorf("max %d n %d", h.max, h.n)
	}
}
