// Package scenario is the one table of measurable scenarios — the eighteen
// figures of the paper's evaluation chapter, the scaling probes that go
// beyond it, the ablations of the design choices, and the rows that drive a
// running ssiserver — and the one runner that measures a cell of it: a row
// crossed with an isolation level, a multiprogramming level, a shard count
// and durability. cmd/ssibench is its command line.
//
// Database lifetime: every cell opens its own database, loads it, warms up,
// measures and closes. A cell therefore never inherits another's versions,
// lock-table growth, suspended transactions or log — the order of a sweep
// cannot change a number, a durable cell's WAL counters are its own, and a
// registered-program cell carries exactly its own proof. The price is one
// load per cell, which at -paper-scale TPC-C volumes dominates a sweep; the
// alternative (one database per isolation level, swept over MPL, as the
// figure runner once did) made a figure's high-MPL cells run on whatever the
// low-MPL ones left behind.
package scenario

import (
	"fmt"
	"os"

	"ssi/internal/harness"
	"ssi/internal/server"
	"ssi/programs"
	"ssi/ssidb"
)

// Row is one scenario. What a row leaves nil it does not have: a row with no
// Isos runs at a level it picks itself, one with no MPLs or no Shards has no
// such axis, and one with no Options has no database of its own to configure
// or make durable.
type Row struct {
	Name  string
	Title string
	Note  string // the paper's result, or what to watch

	Isos   []ssidb.Isolation // default isolation levels
	MPLs   []int             // default multiprogramming levels
	Shards []int             // default shard counts
	Aux    int               // auxiliary workers (harness.Options.Aux)

	// Options configures the cell's database; shards is the cell's position
	// on the row's shard axis (0 without one) and means what the row says —
	// lock-table stripes or row-store partitions.
	Options func(shards int) ssidb.Options
	// Load fills the database and returns what the cell runs on it.
	Load func(db *ssidb.DB, iso ssidb.Isolation) (Loaded, error)

	// RemoteLoad and RemoteTxn replace Options and Load in a row that
	// drives a running server: the load goes through one connection, and
	// each worker runs RemoteTxn — one attempt — on a connection of its own.
	RemoteLoad func(c *server.Client) error
	RemoteTxn  func(c *server.Client, iso ssidb.Isolation) harness.TxnFunc
}

// Loaded is a loaded cell: its isolation level (the cell's, unless the row
// picks its own), each worker's transaction, and the layer of a row that runs
// registered programs, whose counters the cell reports beside the engine's.
type Loaded struct {
	Iso      ssidb.Isolation
	Txn      func(worker int) harness.TxnFunc
	Programs *programs.DB
}

// Remote reports whether the row drives a running server.
func (row Row) Remote() bool { return row.RemoteTxn != nil }

// Cell is a position on the axes: Workers is the MPL (a remote row's
// connection count), Shards 0 without a shard axis, Server the address a
// remote row dials.
type Cell struct {
	Iso     ssidb.Isolation
	Workers int
	Shards  int
	Durable bool
	Server  string
}

// Run measures one cell of the row. Of o it keeps the duration, warmup,
// trials and seed.
func (row Row) Run(c Cell, o harness.Options) (harness.Result, error) {
	o.MPL, o.Aux = c.Workers, row.Aux
	if row.Remote() {
		return row.runRemote(c, o)
	}
	opts := row.Options(c.Shards)
	var db *ssidb.DB
	if c.Durable {
		// A fresh directory per cell: replaying another cell's log would
		// pollute the loaded state and the WAL counters.
		dir, err := os.MkdirTemp("", "ssibench-wal-")
		if err != nil {
			return harness.Result{}, err
		}
		defer os.RemoveAll(dir)
		if db, err = ssidb.OpenDir(dir, opts); err != nil {
			return harness.Result{}, err
		}
	} else {
		db = ssidb.Open(opts)
	}
	defer db.Close()
	ld, err := row.Load(db, c.Iso)
	if err != nil {
		return harness.Result{}, fmt.Errorf("load %s: %w", row.Name, err)
	}
	o.Stats = func() harness.Window {
		w := harness.Window{Stats: db.StatsSnapshot()}
		if ld.Programs != nil {
			w.Programs = ld.Programs.StatsSnapshot()
		}
		return w
	}
	res := harness.RunWorkers(ld.Txn, o)
	res.Row, res.Iso, res.Shards, res.Durable = row.Name, ld.Iso.String(), c.Shards, c.Durable
	return res, nil
}
