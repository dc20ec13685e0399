// Package programs runs an application's registered transaction programs over
// an ssidb database at the isolation level a static analysis of the programs
// justifies (thesis Chapter 2, after Fekete et al. 2005). It is a layer over
// ssidb's public API; the engine knows nothing of it.
//
//	pdb := programs.New(db)
//	rep, err := pdb.RegisterPrograms(progs, programs.ProgramOptions{
//		ClassTables: map[string]string{"Account": "account", ...},
//		AutoRemedy:  true, // mechanically Promote away dangerous structures
//	})
//	err = pdb.RunProgram("Pay", func(tx *programs.Txn) error { ... })
//
// A robust set — no dangerous structure — runs every program transaction at
// plain SnapshotIsolation, which Theorem 3 proves serializable for these
// programs; any other set runs at SerializableSI. With AutoRemedy the layer
// first applies sdg.AutoPromote and performs the identity writes it asks for
// (thesis §2.6.2): on a promoted table a Get that finds a row Puts a copy of
// its value, and a Scan Puts a copy of every row it showed the callback once
// the engine scan has returned, so a concurrent writer of those rows collides
// under First-Committer-Wins.
//
// Every statement is checked against the program's declared tables before it
// reaches the engine, which adds one statement-level error to ssidb's
// contract (the module's package documentation, note [7]):
//
//	F ErrFootprint  a read of a table the program does not declare it reads,
//	                or a write of one it does not declare it writes (a
//	                GetForUpdate is both). The transaction stays usable; the
//	                layer escalates to SerializableSI for good. ErrTxnDone and
//	                a read-only program's ErrReadOnly come first.
//
// Transactions outside the registered programs go through Adhoc, which trips
// the same one-way latch and returns the engine's handle once the program
// transactions admitted at SI have ended: no ad-hoc transaction overlaps an
// SI-era program, so every cross edge points forward in time and cannot close
// a cycle. SI and SSI programs may mix freely (SSI is SI plus extra aborts). A
// load before RegisterPrograms may use the engine handle directly.
package programs

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"ssi/internal/sdg"
	"ssi/ssidb"
)

// ErrFootprint reports a statement outside the declared footprint of the
// program the transaction runs (see the package comment).
var ErrFootprint = errors.New("ssi: access outside the program's declared footprint")

// ProgramOptions configures RegisterPrograms.
type ProgramOptions struct {
	// ClassTables maps every sdg item class appearing in the programs to the
	// engine table it denotes (e.g. "Checking" → "checking"). Registration
	// fails if any class is unmapped; several classes may map to one table
	// (TPC-C keeps D_NEXT_O_ID and D_YTD in the district table).
	ClassTables map[string]string
	// AutoRemedy applies sdg.AutoPromote when the set is not robust as
	// declared: vulnerable In→Pivot edges are broken by promoting reads to
	// identity writes (thesis §2.6.2), which the layer performs at runtime on
	// the promoted tables. The analysis then runs on the remedied set; if it
	// is robust, programs execute at plain SI.
	AutoRemedy bool
}

// ProgramReport is the registration verdict.
type ProgramReport struct {
	// Robust reports that the (possibly remedied) program set has no
	// dangerous structure, so RunProgram executes at plain SI.
	Robust bool
	// Level is the isolation RunProgram uses while the layer is not
	// escalated: SnapshotIsolation when Robust, SerializableSI otherwise.
	Level ssidb.Isolation
	// Pivots are the dangerous-structure pivots of the set as declared
	// (before any remedy) — empty when the declared set is already robust.
	Pivots []string
	// Remedies lists the Promote applications AutoRemedy performed, in
	// order. Empty without AutoRemedy or when none were needed.
	Remedies []sdg.Remedy
	// Promoted maps each rewritten program to the tables on which the layer
	// now performs identity writes after reads.
	Promoted map[string][]string
}

// Stats is the layer's counters, cumulative since New. ProgramRuns counts
// BeginProgram/RunProgram transactions; ProgramSIRuns the subset admitted at
// plain SI under the robustness proof; FootprintViolations the statements
// refused with ErrFootprint; SDGEscalations the events that tripped (or
// re-confirmed) the one-way escalated-to-SSI latch — a footprint violation,
// or an Adhoc call. SDGEscalated reports the latch itself.
type Stats struct {
	ProgramRuns         uint64
	ProgramSIRuns       uint64
	FootprintViolations uint64
	SDGEscalations      uint64
	SDGEscalated        bool
}

// program is the runtime form of one registered program: its declared
// footprint resolved to table names, and the tables it promotes.
type program struct {
	name                    string
	readOnly                bool // no declared writes even after remedies: rides the RO fast path
	reads, writes, promoted map[string]bool
}

type registry struct {
	byName map[string]*program
	robust bool
}

// DB is the registered-program layer over one database.
type DB struct {
	db  *ssidb.DB
	reg atomic.Pointer[registry]

	// escalated is the one-way latch; siActive counts the program
	// transactions admitted at plain SI and not yet ended, which Adhoc drains.
	escalated                             atomic.Bool
	siActive                              atomic.Int64
	escalations, violations, runs, siRuns atomic.Uint64
}

// New returns the program layer over db, with no programs registered.
func New(db *ssidb.DB) *DB { return &DB{db: db} }

// RegisterPrograms declares the application's transaction programs and runs
// the dangerous-structure analysis on them. It may be called once per layer,
// before the program workload starts. The report says what the analysis
// concluded and which remedies, if any, were applied.
func (d *DB) RegisterPrograms(progs []*sdg.Program, opts ProgramOptions) (*ProgramReport, error) {
	if len(progs) == 0 {
		return nil, errors.New("programs: RegisterPrograms: empty program set")
	}
	declared := map[string]*sdg.Program{}
	for _, p := range progs {
		if declared[p.Name] != nil {
			return nil, fmt.Errorf("programs: RegisterPrograms: duplicate program %q", p.Name)
		}
		declared[p.Name] = p
	}
	g := sdg.New(progs...)
	report := &ProgramReport{Pivots: g.Pivots(), Promoted: map[string][]string{}}
	remedied := g
	if !g.Serializable() && opts.AutoRemedy {
		remedied, report.Remedies = sdg.AutoPromote(g)
	}
	report.Robust = remedied.Serializable()
	report.Level = ssidb.SerializableSI
	if report.Robust {
		report.Level = ssidb.SnapshotIsolation
	}

	reg := &registry{byName: map[string]*program{}, robust: report.Robust}
	for _, p := range remedied.Programs {
		rp := &program{name: p.Name, readOnly: p.ReadOnly(), reads: map[string]bool{}, writes: map[string]bool{}, promoted: map[string]bool{}}
		reads := p.ReadClasses()
		for i, c := range append(reads, p.WriteClasses()...) {
			tb, ok := opts.ClassTables[c]
			switch {
			case !ok:
				return nil, fmt.Errorf("programs: RegisterPrograms: program %q: class %q has no table mapping", p.Name, c)
			case i < len(reads):
				rp.reads[tb] = true
			default:
				rp.writes[tb] = true
				if !slices.Contains(declared[p.Name].WriteClasses(), c) {
					rp.promoted[tb] = true // a write the declaration did not have
				}
			}
		}
		if len(rp.promoted) > 0 {
			report.Promoted[p.Name] = slices.Sorted(maps.Keys(rp.promoted))
		}
		reg.byName[p.Name] = rp
	}
	if !d.reg.CompareAndSwap(nil, reg) {
		return nil, errors.New("programs: RegisterPrograms: programs already registered")
	}
	return report, nil
}

// Adhoc returns the engine handle, for transactions outside the registered
// programs: with programs registered, once it has escalated the layer and no
// program transaction admitted at SI still runs (an admission re-checks the
// latch after publishing itself to siActive, so one this drain misses chose
// SSI). Do not call it while the calling goroutine runs a program
// transaction: the drain would wait for it.
func (d *DB) Adhoc() *ssidb.DB {
	if d.reg.Load() == nil {
		return d.db
	}
	d.escalations.Add(1)
	d.escalated.Store(true)
	for i := 0; d.siActive.Load() != 0; i++ {
		if i < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
	return d.db
}

// BeginProgram starts a transaction executing the named registered program,
// at the isolation level the robustness analysis justifies. Read-only
// programs are declared read-only at begin and ride the safe-snapshot fast
// path when at SerializableSI.
func (d *DB) BeginProgram(name string) (*Txn, error) {
	reg := d.reg.Load()
	if reg == nil {
		return nil, errors.New("programs: BeginProgram: no programs registered")
	}
	p := reg.byName[name]
	if p == nil {
		return nil, fmt.Errorf("programs: BeginProgram: unknown program %q", name)
	}
	d.runs.Add(1)
	iso, siToken := ssidb.SerializableSI, false
	if reg.robust && !d.escalated.Load() {
		// Publish, then re-check the latch (see Adhoc).
		d.siActive.Add(1)
		if d.escalated.Load() {
			d.siActive.Add(-1)
		} else {
			iso, siToken = ssidb.SnapshotIsolation, true
			d.siRuns.Add(1)
		}
	}
	return &Txn{tx: d.db.BeginTx(iso, ssidb.TxnOptions{ReadOnly: p.readOnly}), d: d, p: p, siToken: siToken}, nil
}

// RunProgram executes fn as one instance of the named registered program,
// committing on nil return and aborting otherwise (ssidb.DB.Run's contract).
// It does not retry; ssidb.Retryable classifies the returned error.
func (d *DB) RunProgram(name string, fn func(*Txn) error) error {
	tx, err := d.BeginProgram(name)
	if err != nil {
		return err
	}
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// StatsSnapshot returns the layer's counters.
func (d *DB) StatsSnapshot() Stats {
	return Stats{
		ProgramRuns:         d.runs.Load(),
		ProgramSIRuns:       d.siRuns.Load(),
		FootprintViolations: d.violations.Load(),
		SDGEscalations:      d.escalations.Load(),
		SDGEscalated:        d.escalated.Load(),
	}
}

// Txn is one program transaction. Each method is the ssidb.Txn method of its
// name, after the footprint check and, on a promoted table, with Get's and
// Scan's identity writes. Like ssidb.Txn it is for one goroutine at a time.
type Txn struct {
	tx *ssidb.Txn
	d  *DB
	p  *program
	// siToken says the transaction holds a share of siActive, which end
	// returns when it sets done.
	siToken, done bool
}

// check admits a statement on table that reads it, writes it, or both; a
// finished transaction, and a write on a read-only program, go to the engine,
// which refuses them. Enforcement outlives escalation: a program roaming
// beside SI-era ones would bring back the edges the proof excluded.
func (t *Txn) check(table string, read, write bool) error {
	op := "read"
	switch {
	case t.done, write && t.p.readOnly:
		return nil
	case read && !t.p.reads[table]:
	case write && !t.p.writes[table]:
		op = "write"
	default:
		return nil
	}
	t.d.violations.Add(1)
	t.d.escalations.Add(1)
	t.d.escalated.Store(true)
	return fmt.Errorf("%w: program %q: %s %q", ErrFootprint, t.p.name, op, table)
}

// end finishes the transaction on the layer's side: the engine transaction is
// rolled back if it still runs (Abort is a no-op on a finished one), and the
// drain share is returned.
func (t *Txn) end() {
	t.tx.Abort()
	if t.siToken && !t.done {
		t.d.siActive.Add(-1)
	}
	t.done = true
}

// settle passes a statement's err through, ending the transaction if err
// ended the engine's, so a caller that drops it without Abort cannot hold up
// Adhoc.
func (t *Txn) settle(err error) error {
	if ssidb.Retryable(err) {
		t.end()
	}
	return err
}

func (t *Txn) Isolation() ssidb.Isolation { return t.tx.Isolation() }

func (t *Txn) Get(table string, key []byte) (val []byte, found bool, err error) {
	if err := t.check(table, true, false); err != nil {
		return nil, false, err
	}
	val, found, err = t.tx.Get(table, key)
	if err == nil && found && t.p.promoted[table] {
		// Runtime half of the Promote remedy: re-write the value just read,
		// so a concurrent writer of this row collides under
		// First-Committer-Wins — the vulnerable rw edge becomes ww.
		err = t.tx.Put(table, key, append([]byte(nil), val...))
	}
	if err != nil {
		return nil, false, t.settle(err)
	}
	return val, found, nil
}

// GetForUpdate is a read and a write intent: the program must declare the
// table in both directions. It makes no promotion write.
func (t *Txn) GetForUpdate(table string, key []byte) (val []byte, found bool, err error) {
	if err := t.check(table, true, true); err != nil {
		return nil, false, err
	}
	val, found, err = t.tx.GetForUpdate(table, key)
	return val, found, t.settle(err)
}

func (t *Txn) Put(table string, key, val []byte) error {
	if err := t.check(table, false, true); err != nil {
		return err
	}
	return t.settle(t.tx.Put(table, key, val))
}

func (t *Txn) Insert(table string, key, val []byte) error {
	if err := t.check(table, false, true); err != nil {
		return err
	}
	return t.settle(t.tx.Insert(table, key, val))
}

func (t *Txn) Delete(table string, key []byte) error {
	if err := t.check(table, false, true); err != nil {
		return err
	}
	return t.settle(t.tx.Delete(table, key))
}

func (t *Txn) Scan(table string, from, to []byte, fn func(key, val []byte) bool) error {
	return t.scan(table, from, to, 0, fn)
}

func (t *Txn) ScanLimit(table string, from, to []byte, limit int, fn func(key, val []byte) bool) error {
	return t.scan(table, from, to, max(limit, 1), fn)
}

// scan is Scan, or ScanLimit with a positive limit. On a promoted table every
// row shown to fn — the one fn stopped at too — is written back once the
// engine scan has returned.
func (t *Txn) scan(table string, from, to []byte, limit int, fn func(key, val []byte) bool) error {
	if err := t.check(table, true, false); err != nil {
		return err
	}
	var keys, vals [][]byte
	if t.p.promoted[table] {
		show := fn
		fn = func(key, val []byte) bool {
			// Copied: the slices are the store's, valid only until the scan
			// returns, and the writes below change the tree.
			keys = append(keys, bytes.Clone(key))
			vals = append(vals, append([]byte(nil), val...))
			return show(key, val)
		}
	}
	var err error
	if limit == 0 {
		err = t.tx.Scan(table, from, to, fn)
	} else {
		err = t.tx.ScanLimit(table, from, to, limit, fn)
	}
	for i := 0; err == nil && i < len(keys); i++ {
		err = t.tx.Put(table, keys[i], vals[i])
	}
	return t.settle(err)
}

// Commit commits the transaction and returns its drain share, whatever the
// outcome.
func (t *Txn) Commit() error {
	err := t.tx.Commit()
	t.end()
	return err
}

// Abort rolls the transaction back; on a finished transaction it is a no-op.
// The returned error is always nil.
func (t *Txn) Abort() error {
	t.end()
	return nil
}
