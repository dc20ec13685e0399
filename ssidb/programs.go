package ssidb

// Workload-robustness subsystem: static dependency-graph analysis wired into
// the engine (thesis Chapter 2 / Fekete et al. 2005; ROADMAP item 2b).
//
// An application registers its transaction programs — declared read/write
// item classes mapped to tables — once, up front. Registration runs the
// dangerous-structure analysis: if the whole set is robust (no dangerous
// structure), every RunProgram transaction executes at plain SI, which
// Theorem 3 proves serializable for these programs, and the entire SSI
// apparatus (SIREAD locks, conflict edges, the abort-early probe) drops out.
// If the set is not robust, programs run at full SerializableSI; with
// ProgramOptions.AutoRemedy the registry first applies Promote mechanically
// (sdg.AutoPromote) and the engine performs the resulting identity writes at
// runtime, so e.g. SmallBank becomes robust via the thesis's PromoteBW.
//
// The static proof is only as good as the declarations, so the engine
// enforces them: every access by a program transaction is checked against the
// program's declared table footprint. An out-of-footprint access fails that
// statement with ErrFootprint — and permanently escalates the whole database
// back to SerializableSI (a one-way latch, counted in Stats.SDGEscalations),
// because a single unverified access voids the proof for every concurrent and
// future execution. Ad-hoc transactions (Begin/BeginTx/Run alongside a
// registered program set) force the same escalation, and are admitted once
// the in-flight SI program transactions drain.
//
// Mixing is sound in both directions: among the registered programs SI and
// SSI may coexist freely (SSI is SI plus extra aborts, so any mixed execution
// is also an SI execution of the robust set); and the drain barrier makes
// ad-hoc transactions non-concurrent with SI-era program transactions, so
// every cross edge points forward in time and cannot close a cycle.

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"ssi/internal/sdg"
)

// ErrFootprint reports an access outside the declared read/write footprint of
// the program the transaction runs. Like ErrReadOnly it is statement-level:
// the offending statement fails but the transaction is not aborted. Unlike
// ErrReadOnly it has a global side effect — the database permanently
// escalates to SerializableSI, since the access voids the robustness proof.
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
	// identity writes (thesis §2.6.2), and the engine performs those writes
	// at runtime on the promoted tables. The analysis then runs on the
	// remedied set; if it is robust, programs execute at plain SI.
	AutoRemedy bool
}

// ProgramReport is the registration verdict.
type ProgramReport struct {
	// Robust reports that the (possibly remedied) program set has no
	// dangerous structure, so RunProgram executes at plain SI.
	Robust bool
	// Level is the isolation RunProgram uses while the database is not
	// escalated: SnapshotIsolation when Robust, SerializableSI otherwise.
	Level Isolation
	// Pivots are the dangerous-structure pivots of the set as declared
	// (before any remedy) — empty when the declared set is already robust.
	Pivots []string
	// Remedies lists the Promote applications AutoRemedy performed, in
	// order. Empty without AutoRemedy or when none were needed.
	Remedies []sdg.Remedy
	// Promoted maps each rewritten program to the tables on which the
	// engine now performs identity writes after reads.
	Promoted map[string][]string
}

// registeredProgram is the runtime form of one program: its declared
// footprint resolved to table names, plus the promotion rewrite.
type registeredProgram struct {
	name        string
	readOnly    bool // no declared writes even after remedies: rides the RO fast path
	readTables  map[string]bool
	writeTables map[string]bool
	// promoted tables get an identity write after every successful read, the
	// runtime half of the §2.6.2 Promote remedy.
	promoted map[string]bool
}

type progRegistry struct {
	byName map[string]*registeredProgram
	robust bool
}

// RegisterPrograms declares the application's transaction programs and runs
// the dangerous-structure analysis on them. It may be called once per DB,
// before the program workload starts. On success, RunProgram executes named
// programs at the level the analysis justifies (see the package comment of
// this file for the full contract). The returned report says what the
// analysis concluded and which remedies, if any, were applied.
func (db *DB) RegisterPrograms(progs []*sdg.Program, opts ProgramOptions) (*ProgramReport, error) {
	if len(progs) == 0 {
		return nil, errors.New("ssidb: RegisterPrograms: empty program set")
	}
	seen := map[string]bool{}
	for _, p := range progs {
		if seen[p.Name] {
			return nil, fmt.Errorf("ssidb: RegisterPrograms: duplicate program %q", p.Name)
		}
		seen[p.Name] = true
	}
	g := sdg.New(progs...)
	report := &ProgramReport{Pivots: g.Pivots(), Promoted: map[string][]string{}}
	remedied := g
	if !g.Serializable() && opts.AutoRemedy {
		remedied, report.Remedies = sdg.AutoPromote(g)
	}
	report.Robust = remedied.Serializable()
	report.Level = SerializableSI
	if report.Robust {
		report.Level = SnapshotIsolation
	}

	originalWrites := map[string]map[string]bool{}
	for _, p := range progs {
		ws := map[string]bool{}
		for _, c := range p.WriteClasses() {
			ws[c] = true
		}
		originalWrites[p.Name] = ws
	}

	reg := &progRegistry{byName: map[string]*registeredProgram{}, robust: report.Robust}
	for _, p := range remedied.Programs {
		rp := &registeredProgram{
			name:        p.Name,
			readOnly:    p.ReadOnly(),
			readTables:  map[string]bool{},
			writeTables: map[string]bool{},
			promoted:    map[string]bool{},
		}
		resolve := func(class string) (string, error) {
			tb, ok := opts.ClassTables[class]
			if !ok {
				return "", fmt.Errorf("ssidb: RegisterPrograms: program %q: class %q has no table mapping", p.Name, class)
			}
			return tb, nil
		}
		for _, c := range p.ReadClasses() {
			tb, err := resolve(c)
			if err != nil {
				return nil, err
			}
			rp.readTables[tb] = true
		}
		for _, c := range p.WriteClasses() {
			tb, err := resolve(c)
			if err != nil {
				return nil, err
			}
			rp.writeTables[tb] = true
			if !originalWrites[p.Name][c] {
				// A write class the declaration did not have: a promotion.
				rp.promoted[tb] = true
			}
		}
		if len(rp.promoted) > 0 {
			var tbs []string
			for tb := range rp.promoted {
				tbs = append(tbs, tb)
			}
			sort.Strings(tbs)
			report.Promoted[p.Name] = tbs
		}
		reg.byName[p.Name] = rp
	}
	if !db.programs.CompareAndSwap(nil, reg) {
		return nil, errors.New("ssidb: RegisterPrograms: programs already registered")
	}
	return report, nil
}

// escalate trips the one-way SSI latch and counts the triggering event.
func (db *DB) escalate() {
	db.sdgEscalations.Add(1)
	db.sdgEscalated.Store(true)
}

// drainSIPrograms waits until no program transaction admitted at plain SI is
// still in flight. Callers trip the escalation latch, which stops new SI
// admissions, *before* draining; program admission re-checks the latch after
// publishing itself to siProgActive, so — both sides being sequentially
// consistent atomics — an admission this drain misses is one that observed
// the latch and chose SSI.
func (db *DB) drainSIPrograms() {
	for i := 0; db.siProgActive.Load() != 0; i++ {
		if i < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// noteAdhocBegin implements the ad-hoc side of the contract at every public
// begin: escalate, then drain. With no registered programs it is one atomic
// load.
//
// Do not Begin an ad-hoc transaction from inside a RunProgram function: the
// drain would wait for the program transaction that is running it.
func (db *DB) noteAdhocBegin() {
	if db.programs.Load() == nil {
		return
	}
	db.escalate()
	db.drainSIPrograms()
}

// BeginProgram starts a transaction executing the named registered program,
// at the isolation level the robustness analysis justifies. The transaction
// carries the program's declared footprint; accesses outside it fail with
// ErrFootprint and escalate the database (see ErrFootprint). Read-only
// programs are declared read-only at begin and ride the safe-snapshot fast
// path when at SerializableSI.
func (db *DB) BeginProgram(name string) (*Txn, error) {
	reg := db.programs.Load()
	if reg == nil {
		return nil, errors.New("ssidb: BeginProgram: no programs registered")
	}
	p := reg.byName[name]
	if p == nil {
		return nil, fmt.Errorf("ssidb: BeginProgram: unknown program %q", name)
	}
	db.programRuns.Add(1)
	iso := SerializableSI
	siToken := false
	if reg.robust && !db.sdgEscalated.Load() {
		// Publish-then-recheck against escalation (see drainSIPrograms):
		// after the publication, either the latch is down and SI admission is
		// safe, or the escalator will see us drain.
		db.siProgActive.Add(1)
		if db.sdgEscalated.Load() {
			db.siProgActive.Add(-1)
		} else {
			iso = SnapshotIsolation
			siToken = true
			db.programSIRuns.Add(1)
		}
	}
	tx := db.beginTx(iso, TxnOptions{ReadOnly: p.readOnly})
	tx.prog = p
	tx.progSIToken = siToken
	return tx, nil
}

// RunProgram executes fn as one instance of the named registered program,
// committing on nil return and aborting otherwise (the RunProgram analogue of
// Run). It does not retry; Retryable classifies the returned error.
func (db *DB) RunProgram(name string, fn func(*Txn) error) error {
	tx, err := db.BeginProgram(name)
	if err != nil {
		return err
	}
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// ---------------------------------------------------------------------------
// Per-operation footprint enforcement (called from txn.go entry points).

// progReadCheck admits a read of table, or fails the statement and escalates.
func (tx *Txn) progReadCheck(table string) error {
	p := tx.prog
	if p == nil || p.readTables[table] {
		return nil
	}
	return tx.footprintViolation(p, "read", table)
}

// progWriteCheck admits a write of table, or fails the statement and
// escalates. Write intents (GetForUpdate) check both directions.
func (tx *Txn) progWriteCheck(table string) error {
	p := tx.prog
	if p == nil || p.writeTables[table] {
		return nil
	}
	return tx.footprintViolation(p, "write", table)
}

// footprintViolation is the runtime teeth of the static proof: the statement
// fails (the transaction stays usable, like ErrReadOnly/ErrKeyExists), and
// the database escalates permanently — a single unverified access means the
// declared footprints can no longer be trusted, for this or any program.
// Enforcement continues after escalation: an escalated program transaction
// roaming outside its footprint concurrently with in-flight SI-mode program
// transactions would reintroduce exactly the untracked edges the proof
// excluded.
func (tx *Txn) footprintViolation(p *registeredProgram, op, table string) error {
	tx.db.footprintViolations.Add(1)
	tx.db.escalate()
	return fmt.Errorf("%w: program %q: %s %q", ErrFootprint, p.name, op, table)
}
