package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ssi/internal/harness"
	"ssi/internal/scenario"
	"ssi/internal/server"
	"ssi/internal/workload/smallbank"
	"ssi/internal/workload/tpcc"
	"ssi/programs"
	"ssi/ssidb"
)

// testRows is the table with the TPC-C figures trimmed to one warehouse and
// ten initial orders per district: their loads dominate otherwise.
func testRows() []scenario.Row {
	s := scenario.QuickScale()
	s.Warehouses, s.InitialOrders = 1, 10
	return scenario.Rows(s)
}

func quick(trials int) harness.Options {
	return harness.Options{Duration: 50 * time.Millisecond, Warmup: 10 * time.Millisecond, Trials: trials, Seed: 1}
}

// TestTableComplete: no scenario lost, none twice, and the paper's figures
// are all there with their axes.
func TestTableComplete(t *testing.T) {
	rows := testRows()
	byName := map[string]scenario.Row{}
	for _, r := range rows {
		if _, dup := byName[r.Name]; dup {
			t.Errorf("row %s appears twice", r.Name)
		}
		byName[r.Name] = r
		if r.Title == "" || r.Note == "" {
			t.Errorf("row %s has no title or note", r.Name)
		}
	}
	want := strings.Fields(`kvmix kvmix-hot kvmix-readheavy kvmix-readmostly scanstall
		smallbank smallbank-programs tpcc tpcc-programs
		ablation-basic-detector ablation-queries-at-si ablation-page
		remote-kvmix remote-kvmix-hot remote-smallbank`)
	for i := 1; i <= 18; i++ {
		name := fmt.Sprintf("fig6.%d", i)
		want = append(want, name)
		if r := byName[name]; len(r.Isos) != 3 || len(r.MPLs) == 0 || !strings.HasPrefix(r.Note, "paper: ") {
			t.Errorf("figure %s: isolations %v, MPLs %v, note %q", name, r.Isos, r.MPLs, r.Note)
		}
	}
	for _, name := range want {
		if _, ok := byName[name]; !ok {
			t.Errorf("row %s missing", name)
		}
	}
	if len(rows) != len(want) {
		t.Errorf("%d rows, want %d", len(rows), len(want))
	}
	var b bytes.Buffer
	list(&b, rows)
	if got := strings.Count(b.String(), "\n"); got != len(rows)+1 {
		t.Errorf("-list printed %d lines for %d rows", got, len(rows))
	}
}

// TestEveryRowRuns measures one short cell of every row at Serializable SI
// (or the level the row picks) — the remote rows against an in-process
// server — and checks what each row exists to show.
func TestEveryRowRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("loads every benchmark dataset")
	}
	srv, err := server.Listen("127.0.0.1:0", server.Config{DB: ssidb.Open(ssidb.Options{}), MPL: 2})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	// The level a registered-program row must run at is the one Register
	// reports for its program set.
	proven := map[string]string{}
	for name, register := range map[string]func(*programs.DB) (*programs.ProgramReport, error){
		"smallbank-programs": func(pdb *programs.DB) (*programs.ProgramReport, error) { return smallbank.Register(pdb, true) },
		"tpcc-programs":      tpcc.Register,
	} {
		rep, err := register(programs.New(ssidb.Open(ssidb.Options{})))
		if err != nil {
			t.Fatal(err)
		}
		proven[name] = rep.Level.String()
	}

	for _, row := range testRows() {
		t.Run(row.Name, func(t *testing.T) {
			cell := scenario.Cell{Iso: ssidb.SerializableSI, Workers: 4}
			if row.Shards != nil {
				cell.Shards = 4
			}
			if row.Remote() {
				cell.Server = srv.Addr().String()
			}
			// The scanstall writers' commits are counted over the whole run,
			// as the remote rows' transactions are: a 50 ms window beside a
			// scan on a loaded box may hold none.
			stall := row.Name == "scanstall"
			var writes atomic.Uint64
			if stall {
				load := row.Load
				row.Load = func(db *ssidb.DB, iso ssidb.Isolation) (scenario.Loaded, error) {
					ld, err := load(db, iso)
					worker := ld.Txn
					ld.Txn = func(w int) harness.TxnFunc {
						fn := worker(w)
						if w < row.Aux {
							return fn
						}
						return func(r *rand.Rand) error {
							err := fn(r)
							if err == nil {
								writes.Add(1)
							}
							return err
						}
					}
					return ld, err
				}
			}
			srvBefore, admBefore, _ := srv.StatsSnapshot()
			res, err := row.Run(cell, quick(1))
			if err != nil {
				t.Fatal(err)
			}
			if res.Commits == 0 && !stall || res.Other != 0 {
				t.Fatalf("%d commits, %d unclassified errors", res.Commits, res.Other)
			}
			if res.Row != row.Name || res.MPL != 4 || res.Shards != cell.Shards || res.Latency.P50 <= 0 && !stall {
				t.Errorf("result %+v does not describe cell %+v", res, cell)
			}
			st := res.Stats
			switch {
			case row.Name == "kvmix-readmostly":
				if st.ROSafePromotions == 0 || st.ROSIReadSkips == 0 {
					t.Errorf("declared readers: %d safe-snapshot promotions, %d SIREAD skips", st.ROSafePromotions, st.ROSIReadSkips)
				}
			case strings.HasSuffix(row.Name, "-programs"):
				// The two counters are read one after the other while the workers
				// run, so at each window edge they may differ by a transaction
				// per worker; a program that ran above plain SI shows as thousands.
				// They are the program layer's, not the engine's.
				ps := st.Programs
				if diff := int64(ps.ProgramRuns - ps.ProgramSIRuns); ps.ProgramRuns == 0 || diff < -8 || diff > 8 ||
					ps.FootprintViolations != 0 || ps.SDGEscalations != 0 {
					t.Errorf("%d program runs: %d at plain SI, %d footprint violations, %d escalations",
						ps.ProgramRuns, ps.ProgramSIRuns, ps.FootprintViolations, ps.SDGEscalations)
				}
				if res.Iso != proven[row.Name] {
					t.Errorf("ran at %s, Register reported %s", res.Iso, proven[row.Name])
				}
			case row.Name == "scanstall":
				// One scan outlasts this window; the SIREAD locks of its rounds
				// so far, which four single-Put writers could never hold, show
				// it running.
				if res.Aux != 1 || st.LockedKeys < 1000 {
					t.Errorf("%d aux workers, %d locked keys: is worker 0 scanning?", res.Aux, st.LockedKeys)
				}
				if writes.Load() == 0 {
					t.Errorf("no writer committed beside the scan over the whole run")
				}
			case row.Remote():
				// Counted over the whole run, once every reply is in: each
				// transaction the server served, the window's commits among
				// them, was admitted. (The window's own counters are sampled
				// an RPC apart at its edges, so they need not agree.)
				srvAfter, admAfter, _ := srv.StatsSnapshot()
				served, admitted := srvAfter.TxnsServed-srvBefore.TxnsServed, admAfter.Admitted-admBefore.Admitted
				if admitted != served || served < res.Commits || st.AdmissionMPL != 2 {
					t.Errorf("%d commits of %d transactions served, but the server (MPL %d) admitted %d", res.Commits, served, st.AdmissionMPL, admitted)
				}
			}
			if res.Iso == "" || (row.Isos != nil && res.Iso != "SSI") {
				t.Errorf("ran at %q", res.Iso)
			}
		})
	}

	// Group commit: eight committers on a real log must share fsyncs.
	t.Run("durable", func(t *testing.T) {
		kvmix := testRows()[18]
		if kvmix.Name != "kvmix" {
			t.Fatalf("row 18 is %s, want kvmix right after the 18 figures", kvmix.Name)
		}
		res, err := kvmix.Run(scenario.Cell{Iso: ssidb.SerializableSI, Workers: 8, Shards: 16, Durable: true},
			harness.Options{Duration: 200 * time.Millisecond, Warmup: 20 * time.Millisecond, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stats; !res.Durable || st.Fsyncs == 0 || st.AvgBatchSize <= 1 {
			t.Errorf("%s durable=%v: %d appends in %d batches (%d fsyncs), %.2f a batch",
				res.Row, res.Durable, st.WALAppends, st.GroupCommitBatches, st.Fsyncs, st.AvgBatchSize)
		}
	})
}

// TestSweepShape: a sweep is one cell per point of the crossed axes, in
// order, each carrying its own coordinates and, with trials, an interval.
func TestSweepShape(t *testing.T) {
	c := config{run: "kvmix", iso: "si,S2PL", mpl: "1,2", shards: "1,2", duration: 5 * time.Millisecond, trials: 2, connections: 64}
	plan, err := c.plan(testRows())
	if err != nil || len(plan) != 1 {
		t.Fatalf("plan: %v, %v", plan, err)
	}
	out, err := c.measure(plan[0])
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range out.Cells {
		got = append(got, fmt.Sprintf("%d/%d/%s", r.Shards, r.MPL, r.Iso))
		if r.Elapsed < 10*time.Millisecond {
			t.Errorf("cell %s: %v elapsed, want two trials' worth", got[len(got)-1], r.Elapsed)
		}
	}
	if want := "1/1/SI 1/1/S2PL 1/2/SI 1/2/S2PL 2/1/SI 2/1/S2PL 2/2/SI 2/2/S2PL"; strings.Join(got, " ") != want {
		t.Errorf("cells %v, want %s", got, want)
	}
	if out.Name != "kvmix" || out.Trials != 2 || out.Duration != c.duration {
		t.Errorf("sweep header %+v", out)
	}
}

// TestPlanRejects: the validator is a pure function of the command line and
// the table, and what it refuses it refuses from the row's own data.
func TestPlanRejects(t *testing.T) {
	ok := config{run: "figures", duration: time.Second, warmup: 0, trials: 1, connections: 64}
	with := func(edit func(*config)) config { c := ok; edit(&c); return c }
	rows := testRows()
	for _, tc := range []struct {
		name string
		c    config
		want string // substring of the error; "" for a valid command line
	}{
		{"defaults", ok, ""},
		{"zero duration", with(func(c *config) { c.duration = 0 }), "-duration"},
		{"negative duration", with(func(c *config) { c.duration = -time.Second }), "-duration"},
		{"negative warmup", with(func(c *config) { c.warmup = -1 }), "-warmup"},
		{"no trials", with(func(c *config) { c.trials = 0 }), "-trials"},
		{"no connections", with(func(c *config) { c.connections = 0 }), "-connections"},
		{"unknown row", with(func(c *config) { c.run = "fig6.1,fig9.9" }), `unknown row "fig9.9"; want figures, all or one of: fig6.1, `},
		{"unknown row lists remote rows too", with(func(c *config) { c.run = "nope" }), "remote-smallbank"},
		{"unknown isolation", with(func(c *config) { c.iso = "SSI,RC" }), `unknown isolation "RC"`},
		{"bad mpl", with(func(c *config) { c.mpl = "1,0" }), "-mpl"},
		{"bad shards", with(func(c *config) { c.shards = "x" }), "-shards"},
		{"figure has no shard axis", with(func(c *config) { c.run = "fig6.1"; c.shards = "4" }), "row fig6.1 has no -shards axis"},
		{"programs fix their level", with(func(c *config) { c.run = "tpcc-programs"; c.iso = "SSI" }), "row tpcc-programs has no -iso axis"},
		{"remote needs a server", with(func(c *config) { c.run = "remote-kvmix" }), "-server"},
		{"remote is not durable", with(func(c *config) { c.run = "remote-kvmix"; c.server = "x:1"; c.durable = true }), "row remote-kvmix has no -durable axis"},
		{"remote has no shards", with(func(c *config) { c.run = "remote-smallbank"; c.server = "x:1"; c.shards = "4" }), "row remote-smallbank has no -shards axis"},
		{"remote workers are connections", with(func(c *config) { c.run = "remote-kvmix"; c.server = "x:1"; c.mpl = "8" }), "row remote-kvmix has no -mpl axis"},
		{"local rows take no server", with(func(c *config) { c.run = "kvmix"; c.server = "x:1" }), "row kvmix has no -server axis"},
		{"local rows take no connections", with(func(c *config) { c.run = "kvmix"; c.connectionsSet = true }), "row kvmix has no -connections axis"},
		{"all, in-process", with(func(c *config) { c.run = "all" }), ""},
		{"all, remote", with(func(c *config) { c.run = "all"; c.server = "x:1"; c.connections = 8; c.connectionsSet = true }), ""},
		{"axes given", with(func(c *config) {
			c.run = "kvmix,smallbank"
			c.iso = "si"
			c.mpl = "8"
			c.shards = "1,16"
			c.durable = true
		}), ""},
	} {
		plan, err := tc.c.plan(rows)
		switch {
		case tc.want == "" && (err != nil || len(plan) == 0):
			t.Errorf("%s: plan %v, error %v", tc.name, plan, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	count := func(c config) (n, remote int) {
		plan, _ := c.plan(rows)
		for _, row := range plan {
			if row.Remote() {
				remote++
			}
		}
		return len(plan), remote
	}
	if n, remote := count(ok); n != 18 || remote != 0 {
		t.Errorf("figures selects %d rows (%d remote)", n, remote)
	}
	if n, remote := count(with(func(c *config) { c.run = "all" })); n != len(rows)-3 || remote != 0 {
		t.Errorf("all selects %d rows (%d remote) of %d", n, remote, len(rows))
	}
	if n, remote := count(with(func(c *config) { c.run = "all"; c.server = "x:1" })); n != 3 || remote != 3 {
		t.Errorf("all with -server selects %d rows (%d remote)", n, remote)
	}
	plan, _ := with(func(c *config) { c.run = "tpcc-programs"; c.mpl = "8" }).plan(rows)
	if r := plan[0]; len(r.Isos) != 1 || len(r.MPLs) != 1 || r.MPLs[0] != 8 || len(r.Shards) != 4 {
		t.Errorf("tpcc-programs -mpl 8 resolves to %v × %v × %v", r.Isos, r.MPLs, r.Shards)
	}
	plan, _ = with(func(c *config) { c.run = "remote-kvmix"; c.server = "x:1"; c.connections = 7 }).plan(rows)
	if r := plan[0]; len(r.MPLs) != 1 || r.MPLs[0] != 7 || len(r.Shards) != 1 || r.Shards[0] != 0 {
		t.Errorf("remote-kvmix -connections 7 resolves to %v × %v × %v", r.Isos, r.MPLs, r.Shards)
	}
}
