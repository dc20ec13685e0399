package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// The tests below walk the rule table of the package comment ("The
// dangerous-structure rules"): one structure tin -rw-> pivot -rw-> tout, tout
// committed before the pivot, judged at each of the four sites, for every
// kind of Tin the read-only rule distinguishes and with Tout's commit on
// either side of Tin's snapshot. A transaction that models a writer is given
// its creator cell, as the engine's first write would.

// tinKind is what the predicate can know about the incoming side.
type tinKind int

const (
	tinDeclaredRO  tinKind = iota // declared read-only, still running
	tinCommittedRO                // undeclared, committed without a cell
	tinWrote                      // undeclared, committed with a cell
	tinRunning                    // undeclared, still running: may yet write
)

func (k tinKind) String() string {
	return [...]string{"declaredRO", "committedWithoutCell", "wrote", "runningUndeclared"}[k]
}

// ruleCase is a built structure: pivot and tin are as the site under test
// should find them, tout has committed at toutCT.
type ruleCase struct {
	m                *Manager
	tin, pivot, tout *Txn
	toutCT           TS
}

// buildStructure begins the three transactions, installs pivot -rw-> tout and
// commits tout; Tin takes its snapshot before that commit or after it. The
// tin -rw-> pivot edge is left to the caller: which operation installs it is
// what distinguishes the sites.
func buildStructure(t *testing.T, kind tinKind, toutBeforeSnap bool) ruleCase {
	t.Helper()
	m := NewManager(DetectorPrecise)
	c := ruleCase{m: m}
	c.tin = m.BeginTx(SerializableSI, kind == tinDeclaredRO)
	c.pivot = m.Begin(SerializableSI)
	c.tout = m.Begin(SerializableSI)
	m.AssignSnapshot(c.pivot)
	m.AssignSnapshot(c.tout)
	if !toutBeforeSnap {
		m.AssignSnapshot(c.tin)
	}
	c.pivot.Cell()
	c.tout.Cell()
	if err := m.MarkConflict(c.pivot, c.tout, c.pivot); err != nil {
		t.Fatal(err)
	}
	c.toutCT = commit(t, m, c.tout, true)
	if snap := m.AssignSnapshot(c.tin); toutBeforeSnap != (c.toutCT < snap) {
		t.Fatalf("snap(tin) = %d against ct(tout) = %d", snap, c.toutCT)
	}
	return c
}

// settleTin leaves Tin as its kind says, after its read has been marked.
func (c ruleCase) settleTin(t *testing.T, kind tinKind) {
	t.Helper()
	switch kind {
	case tinWrote:
		c.tin.Cell()
		commit(t, c.m, c.tin, true)
	case tinCommittedRO:
		commit(t, c.m, c.tin, true)
	}
}

// wantDangerous is the rule table's verdict for a structure whose Tout
// committed first: harmless only if Tin is known to write nothing and took its
// snapshot before Tout committed.
func wantDangerous(kind tinKind, toutBeforeSnap bool) bool {
	readOnly := kind == tinDeclaredRO || kind == tinCommittedRO
	return !readOnly || toutBeforeSnap
}

func forEachRuleCase(t *testing.T, kinds []tinKind, fn func(t *testing.T, kind tinKind, toutBeforeSnap bool)) {
	for _, kind := range kinds {
		for _, before := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/toutBeforeSnap=%v", kind, before), func(t *testing.T) {
				fn(t, kind, before)
			})
		}
	}
}

var allTinKinds = []tinKind{tinDeclaredRO, tinCommittedRO, tinWrote, tinRunning}

// TestRulesAbortEarlyAndCommit covers the two sites where the pivot judges
// itself from its recorded references.
func TestRulesAbortEarlyAndCommit(t *testing.T) {
	sites := map[string]func(c ruleCase) error{
		"abort-early": func(c ruleCase) error { return c.m.AbortEarly(c.pivot) },
		"commit":      func(c ruleCase) error { _, err := c.m.CommitPrepare(c.pivot); return err },
	}
	for name, judge := range sites {
		t.Run(name, func(t *testing.T) {
			forEachRuleCase(t, allTinKinds, func(t *testing.T, kind tinKind, before bool) {
				c := buildStructure(t, kind, before)
				if err := c.m.MarkConflict(c.tin, c.pivot, c.tin); err != nil {
					t.Fatalf("edge into a running pivot: %v", err)
				}
				c.settleTin(t, kind)
				err := judge(c)
				if want := wantDangerous(kind, before); want != errors.Is(err, ErrUnsafe) || (!want && err != nil) {
					t.Fatalf("verdict %v, want dangerous=%v", err, want)
				}
			})
		})
	}
}

// TestRulesReaderSide covers the committed-pivot path of MarkConflict: the
// pivot committed after tout and kept tout's commit timestamp in place of the
// reference, and the caller — necessarily still running — is Tin.
func TestRulesReaderSide(t *testing.T) {
	forEachRuleCase(t, []tinKind{tinDeclaredRO, tinRunning}, func(t *testing.T, kind tinKind, before bool) {
		c := buildStructure(t, kind, before)
		pivotCT := commit(t, c.m, c.pivot, true)
		if c.pivot.out.Load() != c.pivot || c.pivot.outCT != c.toutCT || !(c.toutCT < pivotCT) {
			t.Fatalf("committed pivot keeps out=%p outCT=%d, want a self-reference standing for %d", c.pivot.out.Load(), c.pivot.outCT, c.toutCT)
		}
		err := c.m.MarkConflict(c.tin, c.pivot, c.tin)
		if want := wantDangerous(kind, before); want != errors.Is(err, ErrUnsafe) || (!want && err != nil) {
			t.Fatalf("verdict %v, want dangerous=%v", err, want)
		}
		if err == nil && !c.m.HasInConflict(c.pivot) {
			t.Fatal("spared reader left no in-edge on the committed pivot")
		}
	})
}

// TestRulesReaderSideSeveralTouts: a pivot that committed with several
// outgoing counterparts has no timestamp to offer, and the read-only rule
// must not spare even a declared reader whose snapshot precedes all of them.
func TestRulesReaderSideSeveralTouts(t *testing.T) {
	c := buildStructure(t, tinDeclaredRO, false)
	tout2 := c.m.Begin(SerializableSI)
	c.m.AssignSnapshot(tout2)
	tout2.Cell()
	if err := c.m.MarkConflict(c.pivot, tout2, c.pivot); err != nil {
		t.Fatal(err)
	}
	commit(t, c.m, c.pivot, true)
	if c.pivot.outCT != 0 {
		t.Fatalf("outCT = %d for a several-counterpart self-reference, want 0", c.pivot.outCT)
	}
	if err := c.m.MarkConflict(c.tin, c.pivot, c.tin); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("verdict %v, want ErrUnsafe", err)
	}
}

// TestRulesWriterSide covers the other committed endpoint: the reader
// committed as a would-be pivot with an incoming edge, and the caller is its
// Tout. No rule of the precise detector fires — a running Tout cannot have
// committed first — whatever Tin is; the basic detector aborts the writer
// (TestBasicCommittedReaderPivotAbortsWriter).
func TestRulesWriterSide(t *testing.T) {
	for _, kind := range allTinKinds {
		t.Run(kind.String(), func(t *testing.T) {
			m := NewManager(DetectorPrecise)
			tin := m.BeginTx(SerializableSI, kind == tinDeclaredRO)
			pivot := m.Begin(SerializableSI)
			writer := m.Begin(SerializableSI)
			for _, txn := range []*Txn{tin, pivot, writer} {
				m.AssignSnapshot(txn)
			}
			pivot.Cell()
			if err := m.MarkConflict(tin, pivot, tin); err != nil {
				t.Fatal(err)
			}
			ruleCase{m: m, tin: tin}.settleTin(t, kind)
			commit(t, m, pivot, true)
			writer.Cell()
			if err := m.MarkConflict(pivot, writer, writer); err != nil {
				t.Fatalf("running Tout aborted: %v", err)
			}
			// The structure is complete and stays harmless when the writer
			// commits: it commits after the pivot.
			commit(t, m, writer, true)
		})
	}
}

// randomConflicts drives a random single-goroutine schedule of the calls the
// engine makes — begins (a quarter declared read-only), conflicts found by a
// running caller against a recent concurrent partner, AbortEarly,
// CommitPrepare then Finish, and rollbacks — and checks every transaction in
// reach after each step. Before each verdict it records whether the judged
// transaction would carry both edges, the §3.2 rule; verdict gets the site,
// the result and that flag. It returns every transaction it began.
func randomConflicts(m *Manager, seed int64, check func(*Txn), verdict func(site string, err error, bothSet bool)) []*Txn {
	r := rand.New(rand.NewSource(seed))
	var all, running []*Txn
	both := func(x *Txn) bool { return !x.readOnly && x.in.Load() != nil && x.out.Load() != nil }
	for step := 0; step < 4000; step++ {
		if len(running) < 2 || len(running) < 6 && r.Intn(4) == 0 {
			x := m.BeginTx(SerializableSI, r.Intn(4) == 0)
			m.AssignSnapshot(x)
			all, running = append(all, x), append(running, x)
			continue
		}
		i := r.Intn(len(running))
		c := running[i]
		var err error
		ended := true
		switch r.Intn(8) {
		case 0, 1, 2, 3: // c's read or write finds a conflict with a partner
			ended = false
			p := all[len(all)-1-r.Intn(min(len(all), 16))]
			reader, writer := c, p
			if !c.readOnly && (p.readOnly || r.Intn(2) == 0) {
				reader, writer = p, c
			}
			if p == c || !c.ConcurrentWith(p) || writer.readOnly || writer.Done() && writer.cell == nil {
				continue
			}
			if !writer.Done() {
				writer.Cell()
			}
			bothSet := !reader.Aborted() && !writer.Aborted() &&
				(writer.Committed() && writer.out.Load() != nil || reader.Committed() && reader.in.Load() != nil)
			err = m.MarkConflict(reader, writer, c)
			verdict("MarkConflict", err, bothSet)
		case 4:
			bothSet := both(c)
			err = m.AbortEarly(c)
			verdict("AbortEarly", err, bothSet)
			ended = err != nil
		case 5, 6:
			bothSet := both(c)
			if _, err = m.CommitPrepare(c); err == nil {
				m.Finish(c, r.Intn(2) == 0)
			}
			verdict("CommitPrepare", err, bothSet)
		case 7: // application rollback
			m.Abort(c)
		}
		if err != nil {
			m.Abort(c)
			ended = true
		}
		if ended {
			running = append(running[:i], running[i+1:]...)
		}
		for _, x := range all[len(all)-min(len(all), 16):] {
			check(x)
		}
	}
	return all
}

// TestBasicDetectorNamesNoCounterpart pins what makes the basic detector a
// naming rule rather than a second algorithm: under it no reference ever names
// a counterpart, outCT stays 0, and so every verdict — at each operation, at
// commit, and at both committed endpoints of MarkConflict — is "both edges
// set". The same schedules under the precise detector do name counterparts,
// so the check is not vacuous.
func TestBasicDetectorNamesNoCounterpart(t *testing.T) {
	unsafe := map[string]int{}
	for seed := int64(1); seed <= 8; seed++ {
		m := NewManager(DetectorBasic)
		check := func(x *Txn) {
			if in, out := x.in.Load(), x.out.Load(); in != nil && in != x || out != nil && out != x || x.outCT != 0 {
				t.Fatalf("seed %d: txn %d names a counterpart: in=%p out=%p outCT=%d (self %p)", seed, x.id, in, out, x.outCT, x)
			}
		}
		all := randomConflicts(m, seed, check, func(site string, err error, bothSet bool) {
			if err != nil && !errors.Is(err, ErrUnsafe) || errors.Is(err, ErrUnsafe) != bothSet {
				t.Fatalf("seed %d: %s = %v with both edges set = %v", seed, site, err, bothSet)
			}
			if err != nil {
				unsafe[site]++
			}
		})
		for _, x := range all {
			check(x)
		}
	}
	for _, site := range []string{"MarkConflict", "AbortEarly", "CommitPrepare"} {
		if unsafe[site] == 0 {
			t.Errorf("no %s verdict was unsafe: the schedules exercise nothing there", site)
		}
	}

	named := 0
	for seed := int64(1); seed <= 8; seed++ {
		randomConflicts(NewManager(DetectorPrecise), seed, func(x *Txn) {
			if in, out := x.in.Load(), x.out.Load(); in != nil && in != x || out != nil && out != x {
				named++
			}
		}, func(string, error, bool) {})
	}
	if named == 0 {
		t.Fatal("the precise detector named no counterpart on the same schedules")
	}
	t.Logf("basic: unsafe verdicts %v; precise: %d named references seen", unsafe, named)
}
