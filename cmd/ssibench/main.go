// Command ssibench measures rows of the scenario table (internal/scenario):
// the eighteen figures of the paper's evaluation chapter, the scaling probes
// beyond it, the ablations, and the rows that drive a running ssiserver. A
// row names a workload and its database options; the flags cross it with the
// axes — isolation level, multiprogramming level, shard count, durability —
// and every cell is measured the same way (internal/harness) and printed in
// the same table: commits/s, the abort breakdown the thesis plots, commit
// latency percentiles and the engine counters that moved.
//
// Usage:
//
//	ssibench -list                            # the table
//	ssibench                                  # every figure, quick scale
//	ssibench -run fig6.1,fig6.8 -mpl 1,10,50  # selected figures and MPLs
//	ssibench -run all -paper-scale            # every row, thesis data volumes (slow)
//	ssibench -run kvmix -iso S2PL -mpl 8 -shards 1,16 -trials 3
//	ssibench -run smallbank -durable -json    # real WAL; also BENCH_smallbank.json
//	ssibench -run remote-kvmix -server 127.0.0.1:7654 -connections 64
//
// A flag left out takes the row's own default (-list shows them), and one
// given for an axis the row does not have is an error: a -programs row runs
// at the level its robustness proof justifies, a figure has no shard axis, a
// remote row has no database of its own to shard or make durable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"ssi/internal/harness"
	"ssi/internal/scenario"
	"ssi/ssidb"
)

// config is the command line.
type config struct {
	run, mpl, iso, shards, server   string
	list, durable, paperScale, json bool
	duration, warmup                time.Duration
	trials, connections             int
	// connectionsSet records that -connections was given: it has a default,
	// so its value cannot say.
	connectionsSet bool
}

var isolations = map[string]ssidb.Isolation{
	"SI": ssidb.SnapshotIsolation, "SSI": ssidb.SerializableSI, "S2PL": ssidb.S2PL,
}

// plan validates c against the table and returns the selected rows with
// their axes resolved: Isos, MPLs and Shards are then the positions to
// measure, the command line's where it names them.
func (c config) plan(rows []scenario.Row) ([]scenario.Row, error) {
	switch {
	case c.duration <= 0:
		return nil, fmt.Errorf("-duration %v: the measured window must be positive", c.duration)
	case c.warmup < 0:
		return nil, fmt.Errorf("-warmup %v is negative", c.warmup)
	case c.trials < 1:
		return nil, fmt.Errorf("-trials %d: need at least one", c.trials)
	case c.connections < 1:
		return nil, fmt.Errorf("-connections %d: need at least one", c.connections)
	}
	mpls, err := ints("mpl", c.mpl)
	if err != nil {
		return nil, err
	}
	shards, err := ints("shards", c.shards)
	if err != nil {
		return nil, err
	}
	var isos []ssidb.Isolation
	for _, name := range split(c.iso) {
		iso, ok := isolations[strings.ToUpper(name)]
		if !ok {
			return nil, fmt.Errorf("unknown isolation %q (want SI, SSI or S2PL)", name)
		}
		isos = append(isos, iso)
	}

	var plan []scenario.Row
	for _, name := range split(c.run) {
		var selected []scenario.Row
		for _, row := range rows {
			switch {
			case name == row.Name,
				name == "figures" && strings.HasPrefix(row.Name, "fig"),
				name == "all" && row.Remote() == (c.server != ""):
				selected = append(selected, row)
			}
		}
		if len(selected) == 0 {
			var names []string
			for _, row := range rows {
				names = append(names, row.Name)
			}
			return nil, fmt.Errorf("unknown row %q; want figures, all or one of: %s", name, strings.Join(names, ", "))
		}
		for _, row := range selected {
			// Each axis in turn: given on the command line, has the row got it?
			for _, axis := range []struct {
				flag  string
				given bool
				has   bool
				why   string
			}{
				{"iso", isos != nil, row.Isos != nil, "it runs at the level its robustness analysis justifies"},
				{"mpl", mpls != nil, row.MPLs != nil, "its workers are -connections"},
				{"shards", shards != nil, row.Shards != nil, "its database options are fixed"},
				{"durable", c.durable, !row.Remote(), "the server owns the database"},
				{"server", c.server != "", row.Remote(), "it runs in-process"},
				{"connections", c.connectionsSet, row.Remote(), "its workers are -mpl"},
			} {
				if axis.given && !axis.has {
					return nil, fmt.Errorf("row %s has no -%s axis: %s", row.Name, axis.flag, axis.why)
				}
			}
			if row.Remote() && c.server == "" {
				return nil, fmt.Errorf("row %s drives a running ssiserver: give its address with -server", row.Name)
			}
			// A row that picks its own level, or has no shard axis, still has
			// one cell there: the zero value stands for "the row's".
			row.Isos, row.MPLs, row.Shards = or(isos, row.Isos, 0), or(mpls, row.MPLs, c.connections), or(shards, row.Shards, 0)
			plan = append(plan, row)
		}
	}
	return plan, nil
}

// or returns the axis given on the command line, else the row's own, else the
// single position none.
func or[T any](given, own []T, none T) []T {
	switch {
	case given != nil:
		return given
	case own != nil:
		return own
	}
	return []T{none}
}

func split(list string) []string {
	var out []string
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func ints(name, list string) ([]int, error) {
	var out []int
	for _, s := range split(list) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-%s %q: want positive integers", name, s)
		}
		out = append(out, n)
	}
	return out, nil
}

// measure runs every cell of a planned row, shard count outermost and
// isolation level innermost, so the levels the paper compares sit on
// adjacent lines.
func (c config) measure(row scenario.Row) (harness.Sweep, error) {
	out := harness.Sweep{Name: row.Name, Title: row.Title, Note: row.Note,
		Duration: c.duration, Warmup: c.warmup, Trials: c.trials}
	for _, shards := range row.Shards {
		for _, workers := range row.MPLs {
			for _, iso := range row.Isos {
				res, err := row.Run(
					scenario.Cell{Iso: iso, Workers: workers, Shards: shards, Durable: c.durable, Server: c.server},
					harness.Options{Duration: c.duration, Warmup: c.warmup, Trials: c.trials, Seed: 1})
				if err != nil {
					return out, err
				}
				out.Cells = append(out.Cells, res)
			}
		}
	}
	return out, nil
}

// list prints the table: each row's name, default axes and title. An empty
// axis is one the row does not have.
func list(w io.Writer, rows []scenario.Row) {
	axis := func(v any) string { return strings.Join(strings.Fields(strings.Trim(fmt.Sprint(v), "[]")), ",") }
	fmt.Fprintf(w, "%-27s %-12s %-17s %-10s %s\n", "row", "-iso", "-mpl", "-shards", "scenario")
	for _, r := range rows {
		fmt.Fprintf(w, "%-27s %-12s %-17s %-10s %s\n", r.Name, axis(r.Isos), axis(r.MPLs), axis(r.Shards), r.Title)
	}
}

func main() {
	var c config
	flag.StringVar(&c.run, "run", "figures", "rows to measure: comma-separated names (see -list), 'figures' (the paper's 18) or 'all'")
	flag.BoolVar(&c.list, "list", false, "print the scenario table and exit")
	flag.StringVar(&c.iso, "iso", "", "isolation levels: comma-separated SI, SSI, S2PL (default: the row's)")
	flag.StringVar(&c.mpl, "mpl", "", "multiprogramming levels, comma-separated (default: the row's)")
	flag.StringVar(&c.shards, "shards", "", "shard counts, comma-separated, on the row's shard axis — lock-table stripes or row-store partitions (default: the row's)")
	flag.BoolVar(&c.durable, "durable", false, "commit through a real on-disk WAL (group-commit fsyncs in a per-cell temp directory) instead of in memory")
	flag.DurationVar(&c.duration, "duration", 500*time.Millisecond, "measured window per cell and trial")
	flag.DurationVar(&c.warmup, "warmup", 100*time.Millisecond, "warmup before each window")
	flag.IntVar(&c.trials, "trials", 1, "windows per cell (two or more give a 95% confidence interval)")
	flag.BoolVar(&c.paperScale, "paper-scale", false, "use the thesis data volumes (W=10 standard TPC-C etc.)")
	flag.BoolVar(&c.json, "json", false, "also write each row's cells as BENCH_<row>.json")
	flag.StringVar(&c.server, "server", "", "address of the running ssiserver the remote-* rows drive")
	flag.IntVar(&c.connections, "connections", 64, "with -server: client connections, one worker each")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { c.connectionsSet = c.connectionsSet || f.Name == "connections" })

	scale := scenario.QuickScale()
	if c.paperScale {
		scale = scenario.PaperScale()
	}
	rows := scenario.Rows(scale)
	if c.list {
		list(os.Stdout, rows)
		return
	}
	plan, err := c.plan(rows)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssibench: %v\n", err)
		os.Exit(2)
	}
	for _, row := range plan {
		out, err := c.measure(row)
		if err == nil {
			out.Print(os.Stdout)
		}
		if err == nil && c.json {
			var data []byte
			if data, err = json.MarshalIndent(out, "", "  "); err == nil {
				err = os.WriteFile("BENCH_"+out.Name+".json", append(data, '\n'), 0o644)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssibench: %v\n", err)
			os.Exit(1)
		}
	}
}
