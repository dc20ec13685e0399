package core

import (
	"cmp"
	"errors"
	"slices"
	"sync"
	"testing"
)

// commit is a test helper running the full prepare+finish sequence.
func commit(t *testing.T, m *Manager, txn *Txn, keep bool) TS {
	t.Helper()
	ct, err := m.CommitPrepare(txn)
	if err != nil {
		t.Fatalf("CommitPrepare(%d): %v", txn.ID(), err)
	}
	m.Finish(txn, keep)
	return ct
}

func TestTimestampsMonotonic(t *testing.T) {
	m := NewManager(DetectorBasic)
	t1 := m.Begin(SnapshotIsolation)
	s1 := m.AssignSnapshot(t1)
	t2 := m.Begin(SnapshotIsolation)
	s2 := m.AssignSnapshot(t2)
	if !(s1 < s2) {
		t.Fatalf("snapshots not monotonic: %d, %d", s1, s2)
	}
	c1 := commit(t, m, t1, false)
	if !(c1 > s2) {
		t.Fatalf("commit ts %d not after later snapshot %d", c1, s2)
	}
	if m.AssignSnapshot(t2) != s2 {
		t.Fatal("AssignSnapshot not idempotent")
	}
}

func TestConcurrencyPredicate(t *testing.T) {
	m := NewManager(DetectorBasic)
	a := m.Begin(SerializableSI)
	m.AssignSnapshot(a)
	b := m.Begin(SerializableSI)
	m.AssignSnapshot(b)
	if !a.ConcurrentWith(b) || !b.ConcurrentWith(a) {
		t.Fatal("two active transactions must be concurrent")
	}
	commit(t, m, a, false)
	// a committed while b was running: still concurrent.
	if !a.ConcurrentWith(b) {
		t.Fatal("overlapping transactions must remain concurrent after commit")
	}
	c := m.Begin(SerializableSI)
	m.AssignSnapshot(c)
	// a committed before c began.
	if a.ConcurrentWith(c) || c.ConcurrentWith(a) {
		t.Fatal("a committed before c began; must not be concurrent")
	}
	// A transaction with no snapshot yet cannot overlap committed work.
	d := m.Begin(SerializableSI)
	if a.ConcurrentWith(d) {
		t.Fatal("unsnapshotted transaction overlaps committed transaction")
	}
	if a.ConcurrentWith(a) {
		t.Fatal("transaction concurrent with itself")
	}
}

func TestBasicPivotAbortsAtCommit(t *testing.T) {
	m := NewManager(DetectorBasic)
	tin := m.Begin(SerializableSI)
	pivot := m.Begin(SerializableSI)
	tout := m.Begin(SerializableSI)
	for _, txn := range []*Txn{tin, pivot, tout} {
		m.AssignSnapshot(txn)
	}
	// tin -rw-> pivot -rw-> tout.
	if err := m.MarkConflict(tin, pivot, tin); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkConflict(pivot, tout, pivot); err != nil {
		t.Fatal(err)
	}
	if !m.HasInConflict(pivot) || !m.HasOutConflict(pivot) {
		t.Fatal("pivot flags not set")
	}
	if _, err := m.CommitPrepare(pivot); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("pivot commit = %v, want ErrUnsafe", err)
	}
	if !pivot.Aborted() {
		t.Fatal("pivot not marked aborted")
	}
	// The other two commit fine.
	commit(t, m, tin, false)
	commit(t, m, tout, false)
}

func TestBasicCommittedPivotAbortsCaller(t *testing.T) {
	// A committed transaction with an outgoing edge gains an incoming edge:
	// the caller (reader) must abort (Figure 3.3, first clause).
	m := NewManager(DetectorBasic)
	pivot := m.Begin(SerializableSI)
	tout := m.Begin(SerializableSI)
	reader := m.Begin(SerializableSI)
	for _, txn := range []*Txn{pivot, tout, reader} {
		m.AssignSnapshot(txn)
	}
	if err := m.MarkConflict(pivot, tout, pivot); err != nil {
		t.Fatal(err)
	}
	commit(t, m, pivot, true) // suspended: holds conflicts
	if err := m.MarkConflict(reader, pivot, reader); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("MarkConflict = %v, want ErrUnsafe for reader", err)
	}
	if !reader.Aborted() {
		t.Fatal("reader not aborted")
	}
}

func TestBasicCommittedReaderPivotAbortsWriter(t *testing.T) {
	// Figure 3.3 second clause: reader committed with an incoming edge;
	// the writer (caller) must abort.
	m := NewManager(DetectorBasic)
	tin := m.Begin(SerializableSI)
	pivot := m.Begin(SerializableSI)
	writer := m.Begin(SerializableSI)
	for _, txn := range []*Txn{tin, pivot, writer} {
		m.AssignSnapshot(txn)
	}
	if err := m.MarkConflict(tin, pivot, tin); err != nil {
		t.Fatal(err)
	}
	commit(t, m, pivot, true)
	if err := m.MarkConflict(pivot, writer, writer); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("MarkConflict = %v, want ErrUnsafe for writer", err)
	}
	if !writer.Aborted() {
		t.Fatal("writer not aborted")
	}
}

func TestPreciseAllowsFalsePositiveOfFigure38(t *testing.T) {
	// Figure 3.8: Tin committed before Tout even started committing, so
	// there is no path Tout -> Tin and the history is serializable as
	// {Tin, Tpivot, Tout}. The basic detector aborts the pivot anyway; the
	// precise detector must let it commit.
	run := func(d Detector) error {
		m := NewManager(d)
		tin := m.Begin(SerializableSI)
		pivot := m.Begin(SerializableSI)
		tout := m.Begin(SerializableSI)
		for _, txn := range []*Txn{tin, pivot, tout} {
			m.AssignSnapshot(txn)
		}
		// Order of events in Figure 3.8: Tin commits, then its SIREAD lock
		// is found by pivot's write (edge tin->pivot), then tout's write
		// finds pivot's SIREAD (edge pivot->tout), then pivot commits.
		commit(t, m, tin, true)
		if err := m.MarkConflict(tin, pivot, pivot); err != nil {
			return err
		}
		if err := m.MarkConflict(pivot, tout, tout); err != nil {
			return err
		}
		_, err := m.CommitPrepare(pivot)
		return err
	}
	if err := run(DetectorBasic); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("basic detector = %v, want ErrUnsafe (conservative)", err)
	}
	if err := run(DetectorPrecise); err != nil {
		t.Fatalf("precise detector = %v, want commit (thesis §3.6)", err)
	}
}

func TestPreciseStillCatchesDangerousStructure(t *testing.T) {
	// Tout commits first (the genuinely dangerous ordering): precise must
	// still abort the pivot.
	m := NewManager(DetectorPrecise)
	tin := m.Begin(SerializableSI)
	pivot := m.Begin(SerializableSI)
	tout := m.Begin(SerializableSI)
	for _, txn := range []*Txn{tin, pivot, tout} {
		m.AssignSnapshot(txn)
	}
	if err := m.MarkConflict(pivot, tout, pivot); err != nil {
		t.Fatal(err)
	}
	commit(t, m, tout, true)
	if err := m.MarkConflict(tin, pivot, tin); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CommitPrepare(pivot); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("pivot commit = %v, want ErrUnsafe", err)
	}
}

func TestPreciseMultipleConflictsDegradeToSelfReference(t *testing.T) {
	m := NewManager(DetectorPrecise)
	pivot := m.Begin(SerializableSI)
	r1 := m.Begin(SerializableSI)
	r2 := m.Begin(SerializableSI)
	w := m.Begin(SerializableSI)
	for _, txn := range []*Txn{pivot, r1, r2, w} {
		m.AssignSnapshot(txn)
	}
	// Two incoming edges (degrades in-reference to self), one outgoing,
	// with the outgoing side committed first: must abort at commit.
	if err := m.MarkConflict(pivot, w, pivot); err != nil {
		t.Fatal(err)
	}
	commit(t, m, w, true)
	if err := m.MarkConflict(r1, pivot, r1); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkConflict(r2, pivot, r2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CommitPrepare(pivot); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("pivot commit = %v, want ErrUnsafe", err)
	}
}

func TestAbortEarly(t *testing.T) {
	m := NewManager(DetectorBasic)
	pivot := m.Begin(SerializableSI)
	a := m.Begin(SerializableSI)
	b := m.Begin(SerializableSI)
	for _, txn := range []*Txn{pivot, a, b} {
		m.AssignSnapshot(txn)
	}
	if err := m.AbortEarly(pivot); err != nil {
		t.Fatalf("clean transaction aborted early: %v", err)
	}
	m.MarkConflict(a, pivot, a)
	m.MarkConflict(pivot, b, pivot)
	if err := m.AbortEarly(pivot); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("AbortEarly = %v, want ErrUnsafe", err)
	}
	if !pivot.Aborted() {
		t.Fatal("pivot not aborted")
	}
}

func TestConflictWithAbortedTxnIgnored(t *testing.T) {
	m := NewManager(DetectorBasic)
	a := m.Begin(SerializableSI)
	b := m.Begin(SerializableSI)
	m.AssignSnapshot(a)
	m.AssignSnapshot(b)
	m.Abort(b)
	if err := m.MarkConflict(a, b, a); err != nil {
		t.Fatalf("conflict with aborted txn returned %v", err)
	}
	if m.HasOutConflict(a) {
		t.Fatal("edge recorded against aborted transaction")
	}
}

// retiree is a retired transaction as the retire hook saw it, with its commit
// timestamp read then.
type retiree struct {
	ct TS
	Retired
}

// retirements installs a retire hook that records every transaction retired,
// with its payload, and returns what it has recorded so far.
func retirements(m *Manager) func() []retiree {
	var mu sync.Mutex
	var got []retiree
	m.SetRetireHook(func(batch []Retired) {
		mu.Lock()
		for _, r := range batch {
			got = append(got, retiree{r.Txn.CommitTS(), r})
		}
		mu.Unlock()
	})
	return func() []retiree {
		mu.Lock()
		defer mu.Unlock()
		return append([]retiree(nil), got...)
	}
}

func TestSuspensionAndSweep(t *testing.T) {
	m := NewManager(DetectorBasic)
	retired := retirements(m)
	long := m.Begin(SerializableSI) // overlaps everything below
	m.AssignSnapshot(long)

	for i := 0; i < 5; i++ {
		txn := m.Begin(SerializableSI)
		m.AssignSnapshot(txn)
		if _, err := m.CommitPrepare(txn); err != nil {
			t.Fatal(err)
		}
		m.FinishWith(txn, true, i)
		if got := retired(); len(got) != 0 {
			t.Fatalf("retired %d while long overlapper active", len(got))
		}
		if _, err := m.CommitPrepare(txn); !errors.Is(err, ErrTxnDone) {
			t.Fatalf("second CommitPrepare = %v, want ErrTxnDone", err)
		}
	}
	st := m.StatsSnapshot()
	if st.Suspended != 5 {
		t.Fatalf("Suspended = %d, want 5", st.Suspended)
	}
	// When the long transaction finishes, everything it overlapped drains,
	// each once and with its own payload.
	if _, err := m.CommitPrepare(long); err != nil {
		t.Fatal(err)
	}
	m.Finish(long, false)
	got := retired()
	if len(got) != 5 {
		t.Fatalf("retired %d, want 5", len(got))
	}
	slices.SortFunc(got, func(a, b retiree) int { return cmp.Compare(a.ct, b.ct) })
	for i, e := range got {
		if e.Payload != i {
			t.Fatalf("retirement %d in commit order carries payload %v", i, e.Payload)
		}
	}
	if st := m.StatsSnapshot(); st.Suspended != 0 || st.Active != 0 {
		t.Fatalf("leftover state: %+v", st)
	}
}

// TestSuspensionSweepRespectsOverlap checks the drain's condition: a suspended
// transaction is retired as soon as, and only once, every active transaction
// began after its commit — and a queue kept in commit order holds a commit
// that finished late behind none that finished early.
func TestSuspensionSweepRespectsOverlap(t *testing.T) {
	m := NewManager(DetectorPrecise)
	retired := retirements(m)
	a := m.Begin(SerializableSI)
	m.AssignSnapshot(a)
	commitA, err := m.CommitPrepare(a)
	if err != nil {
		t.Fatal(err)
	}
	b := m.Begin(SerializableSI)
	sb := m.AssignSnapshot(b)
	if sb < commitA {
		t.Fatal("clock order broken")
	}
	// b began after a committed, so a is obsolete the moment it finishes.
	m.Finish(a, true)
	if got := retired(); len(got) != 1 || got[0].Txn != a {
		t.Fatalf("a not retired immediately: %v", got)
	}

	// c and d, on one registry shard, commit in that order under a pin and
	// finish in the other; the pin's end retires both, c first.
	c, d := m.Begin(SerializableSI), m.Begin(SerializableSI)
	for m.regShardOf(d) != m.regShardOf(c) {
		m.Abort(d)
		d = m.Begin(SerializableSI)
	}
	for _, x := range []*Txn{c, d} {
		m.AssignSnapshot(x)
	}
	for _, x := range []*Txn{c, d} {
		if _, err := m.CommitPrepare(x); err != nil {
			t.Fatal(err)
		}
	}
	m.Finish(d, true)
	m.Finish(c, true)
	if got := retired(); len(got) != 1 {
		t.Fatalf("retired %d under b's snapshot, want only a", len(got))
	}
	m.Finish(b, false)
	if got := retired(); len(got) != 3 || got[1].Txn != c || got[2].Txn != d {
		t.Fatalf("after b finished: %v, want a, c, d", got)
	}
}

// TestRetireHookOncePerSuspended churns transaction ends from several
// goroutines, beside a snapshot that one of them keeps re-pinning: every
// suspended transaction reaches the hook exactly once, with its cell already
// severed, and the last end leaves every queue empty.
func TestRetireHookOncePerSuspended(t *testing.T) {
	m := NewManager(DetectorPrecise)
	var mu sync.Mutex
	counts := map[*Txn]int{}
	m.SetRetireHook(func(batch []Retired) {
		for _, r := range batch {
			if r.Txn.cell != nil && r.Txn.cell.Txn() != nil {
				t.Errorf("txn %d reached the hook with its cell still pointing at it", r.Txn.ID())
			}
			if r.Payload != nil && r.Payload != r.Txn {
				t.Errorf("txn %d retired with payload %v", r.Txn.ID(), r.Payload)
			}
			mu.Lock()
			counts[r.Txn]++
			mu.Unlock()
		}
	})
	var suspended sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var pin *Txn
			for i := 0; i < 500; i++ {
				if g == 0 && i%50 == 0 {
					// A snapshot held across 50 of this goroutine's
					// transactions: retirements pile up behind it and
					// drain at its end.
					if pin != nil {
						m.Abort(pin)
					}
					pin = m.Begin(SnapshotIsolation)
					m.AssignSnapshot(pin)
				}
				txn := m.Begin(SnapshotIsolation)
				m.AssignSnapshot(txn)
				keep, wrote := i%2 == 0, i%3 == 0
				var payload any
				if i%5 == 0 {
					payload = txn
				}
				if wrote {
					txn.Cell()
				}
				if _, err := m.CommitPrepare(txn); err != nil {
					t.Error(err)
					return
				}
				if keep || wrote || payload != nil {
					suspended.Store(txn, true)
				}
				m.FinishWith(txn, keep, payload)
			}
			if pin != nil {
				m.Abort(pin)
			}
		}(g)
	}
	wg.Wait()
	n := 0
	suspended.Range(func(k, _ any) bool {
		n++
		if c := counts[k.(*Txn)]; c != 1 {
			t.Errorf("txn %d retired %d times", k.(*Txn).ID(), c)
		}
		return true
	})
	if len(counts) != n {
		t.Errorf("%d transactions retired, %d suspended", len(counts), n)
	}
	if st := m.StatsSnapshot(); st.Active != 0 || st.Suspended != 0 {
		t.Fatalf("leftover state after the last end: %+v", st)
	}
}

func TestCommitPrepareOnFinishedTxn(t *testing.T) {
	m := NewManager(DetectorBasic)
	a := m.Begin(SerializableSI)
	m.AssignSnapshot(a)
	m.Abort(a)
	if _, err := m.CommitPrepare(a); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("CommitPrepare after abort = %v, want ErrUnsafe", err)
	}
}

func TestIsolationStrings(t *testing.T) {
	cases := map[Isolation]string{SnapshotIsolation: "SI", SerializableSI: "SSI", S2PL: "S2PL"}
	for iso, want := range cases {
		if iso.String() != want {
			t.Fatalf("%v.String() = %q", int(iso), iso.String())
		}
	}
	if !SerializableSI.TracksConflicts() || SnapshotIsolation.TracksConflicts() || S2PL.TracksConflicts() {
		t.Fatal("TracksConflicts wrong")
	}
}

func TestConcurrentBeginCommitRace(t *testing.T) {
	m := NewManager(DetectorPrecise)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				txn := m.Begin(SerializableSI)
				m.AssignSnapshot(txn)
				if i%3 == 0 {
					m.Abort(txn)
					continue
				}
				if _, err := m.CommitPrepare(txn); err == nil {
					m.Finish(txn, i%2 == 0)
				}
			}
		}()
	}
	wg.Wait()
	if st := m.StatsSnapshot(); st.Active != 0 || st.Suspended != 0 {
		t.Fatalf("leaked state after concurrent churn: %+v", st)
	}
}
