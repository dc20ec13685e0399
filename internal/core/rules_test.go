package core

import (
	"errors"
	"fmt"
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
