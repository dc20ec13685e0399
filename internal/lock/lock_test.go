package lock

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"ssi/internal/core"
)

func newTxns(n int) (*core.Manager, []*core.Txn) {
	mgr := core.NewManager(core.DetectorBasic)
	txns := make([]*core.Txn, n)
	for i := range txns {
		txns[i] = mgr.Begin(core.SerializableSI)
	}
	return mgr, txns
}

func TestSharedSharedCompatible(t *testing.T) {
	_, txns := newTxns(2)
	m := NewManagerShards(true, 0)
	k := RowKey("t", []byte("x"))
	if _, err := m.AcquireInto(txns[0], k, Shared, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.AcquireInto(txns[1], k, Shared, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("shared lock blocked on shared lock")
	}
}

func TestExclusiveBlocksShared(t *testing.T) {
	_, txns := newTxns(2)
	m := NewManagerShards(true, 0)
	k := RowKey("t", []byte("x"))
	if _, err := m.AcquireInto(txns[0], k, Exclusive, nil); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		m.AcquireInto(txns[1], k, Shared, nil)
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("shared lock granted while exclusive held")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseBlocking(txns[0])
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("shared lock not granted after exclusive release")
	}
}

// TestSIReadNeverBlocksOrIsBlocked: SIREAD and EXCLUSIVE are granted beside
// each other on every kind. An EXCLUSIVE request reports the SIREAD holders
// everywhere; an SIREAD request reports the EXCLUSIVE holders on a page only,
// whose every EXCLUSIVE holder stamps it, and none on a row or a gap, whose
// writers readers find by their versions.
func TestSIReadNeverBlocksOrIsBlocked(t *testing.T) {
	for _, c := range []struct {
		key   Key
		rival bool
	}{
		{PageKey("t", 7), true},
		{RowKey("t", []byte("x")), false},
		{GapKey("t", []byte("x")), false},
	} {
		t.Run(c.key.Kind.String(), func(t *testing.T) {
			_, txns := newTxns(3)
			m := NewManagerShards(true, 0)
			k := c.key
			if _, err := m.AcquireInto(txns[0], k, Exclusive, nil); err != nil {
				t.Fatal(err)
			}
			// SIREAD under a held exclusive lock must be granted immediately,
			// and on a page report the exclusive holder as a rival (thesis
			// Figure 3.4).
			rivals, err := m.AcquireInto(txns[1], k, SIRead, nil)
			if err != nil {
				t.Fatal(err)
			}
			var want []*core.Txn
			if c.rival {
				want = txns[:1]
			}
			if !slices.Equal(rivals, want) {
				t.Fatalf("SIREAD rivals = %v, want %v", rivals, want)
			}
			// A new exclusive request must not block on the SIREAD lock, only on
			// the other exclusive; after release, it reports the SIREAD holder.
			m.ReleaseBlocking(txns[0])
			rivals, err = m.AcquireInto(txns[2], k, Exclusive, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(rivals) != 1 || rivals[0] != txns[1] {
				t.Fatalf("EXCLUSIVE rivals = %v, want [txn1]", rivals)
			}
		})
	}
}

func TestSIReadSurvivesReleaseBlocking(t *testing.T) {
	_, txns := newTxns(1)
	m := NewManagerShards(true, 0)
	k := RowKey("t", []byte("x"))
	m.AcquireInto(txns[0], k, SIRead, nil)
	m.ReleaseBlocking(txns[0])
	if !m.Holds(txns[0], k, SIRead) {
		t.Fatal("SIREAD lock released by ReleaseBlocking")
	}
	if !m.HoldsSIRead(txns[0]) {
		t.Fatal("HoldsSIRead = false")
	}
	m.ReleaseAll(txns[0])
	if m.Holds(txns[0], k, SIRead) {
		t.Fatal("SIREAD lock survived ReleaseAll")
	}
	if s := m.StatsSnapshot(); s.Keys != 0 || s.Owners != 0 {
		t.Fatalf("lock table not empty after ReleaseAll: %+v", s)
	}
}

// TestSIReadUpgrade: an owner's SIREAD on a page goes once it takes
// EXCLUSIVE there (§3.7.3), and a later SIREAD there, one at a time or in a
// batch, takes nothing; a row, whose EXCLUSIVE lock may write no version (a
// locked read; its read goes in a write's Probe instead), and a gap, which
// has no version to carry the conflict, keep both modes (upgradeable).
func TestSIReadUpgrade(t *testing.T) {
	for _, c := range []struct {
		key     Key
		upgrade bool
	}{
		{RowKey("t", []byte("x")), false},
		{PageKey("t", 7), true},
		{GapKey("t", []byte("x")), false},
	} {
		t.Run(c.key.Kind.String(), func(t *testing.T) {
			_, txns := newTxns(1)
			m := NewManagerShards(true, 0)
			k := c.key
			m.AcquireInto(txns[0], k, SIRead, nil)
			m.AcquireInto(txns[0], k, Exclusive, nil)
			if !m.Holds(txns[0], k, Exclusive) {
				t.Fatal("exclusive not held after upgrade")
			}
			if kept := m.Holds(txns[0], k, SIRead); kept == c.upgrade {
				t.Fatalf("SIREAD kept %v after the owner's EXCLUSIVE", kept)
			}
			if kept := m.HoldsSIRead(txns[0]); kept == c.upgrade {
				t.Fatalf("HoldsSIRead = %v after the owner's EXCLUSIVE", kept)
			}
			m.AcquireInto(txns[0], k, SIRead, nil)
			m.AcquireSIReadBatchInto(txns[0], []Key{k}, nil)
			if kept := m.Holds(txns[0], k, SIRead); kept == c.upgrade {
				t.Fatalf("SIREAD held %v when re-acquired under the owner's EXCLUSIVE", kept)
			}
			checkBooks(t, m, txns[0])
		})
	}
}

// TestProbeDropsOwnSIRead: a write's Probe of a row drops the prober's own
// SIREAD there, as an Exclusive grant would (§3.7.3): the entry goes if it
// was the only holder, and another reader's SIREAD stays, reported as a
// reader to mark.
func TestProbeDropsOwnSIRead(t *testing.T) {
	_, txns := newTxns(2)
	m := NewManagerShards(true, 0)
	k, other := RowKey("t", []byte("x")), RowKey("t", []byte("y"))
	m.AcquireInto(txns[0], k, SIRead, nil)
	if readers, blocked := m.Probe(txns[0], k, nil); blocked || len(readers) != 0 {
		t.Fatalf("Probe by the only reader: readers %v, blocked %v", readers, blocked)
	}
	if m.Holds(txns[0], k, SIRead) || m.HoldsSIRead(txns[0]) {
		t.Fatal("the prober kept its SIREAD on the row")
	}
	if s := m.StatsSnapshot(); s.Keys != 0 {
		t.Fatalf("%d lock-table keys after the probe, want 0", s.Keys)
	}
	checkBooks(t, m, txns[0])

	m.AcquireInto(txns[0], other, SIRead, nil)
	m.AcquireInto(txns[1], other, SIRead, nil)
	readers, blocked := m.Probe(txns[0], other, nil)
	if blocked || len(readers) != 1 || readers[0] != txns[1] {
		t.Fatalf("Probe beside another reader: readers %v, blocked %v", readers, blocked)
	}
	if m.Holds(txns[0], other, SIRead) || !m.Holds(txns[1], other, SIRead) {
		t.Fatal("Probe dropped the wrong SIREAD")
	}
	checkBooks(t, m, txns[0])
	checkBooks(t, m, txns[1])
}

// TestProbeKeepsOwnGapSIRead: a gap has no version, so an insert's Probe of
// the gap it splits keeps the prober's own SIREAD there — its scan must
// still see later inserts by others — while reporting another's SIREAD as a
// reader to mark; another's SHARED lock blocks it, and the prober's own does
// not.
func TestProbeKeepsOwnGapSIRead(t *testing.T) {
	_, txns := newTxns(2)
	m := NewManagerShards(true, 0)
	for _, gap := range []Key{GapKey("t", []byte("x")), SupremumGapKey("t")} {
		m.AcquireInto(txns[0], gap, SIRead, nil)
		m.AcquireInto(txns[1], gap, SIRead, nil)
		readers, blocked := m.Probe(txns[0], gap, nil)
		if blocked || len(readers) != 1 || readers[0] != txns[1] {
			t.Fatalf("%v: Probe beside another reader: readers %v, blocked %v", gap, readers, blocked)
		}
		if !m.Holds(txns[0], gap, SIRead) || !m.Holds(txns[1], gap, SIRead) {
			t.Fatalf("%v: Probe dropped a SIREAD on a gap", gap)
		}
		m.AcquireInto(txns[0], gap, Shared, nil)
		if _, blocked := m.Probe(txns[0], gap, nil); blocked {
			t.Fatalf("%v: the prober's own SHARED lock blocks its Probe", gap)
		}
		m.AcquireInto(txns[1], gap, Shared, nil)
		if readers, blocked := m.Probe(txns[0], gap, nil); !blocked || len(readers) != 0 {
			t.Fatalf("%v: Probe beside another's SHARED lock: readers %v, blocked %v", gap, readers, blocked)
		}
	}
	checkBooks(t, m, txns[0])
	checkBooks(t, m, txns[1])
}

func TestSharedToExclusiveUpgrade(t *testing.T) {
	_, txns := newTxns(2)
	m := NewManagerShards(true, 0)
	k := RowKey("t", []byte("x"))
	m.AcquireInto(txns[0], k, Shared, nil)
	m.AcquireInto(txns[1], k, Shared, nil)
	done := make(chan error, 1)
	go func() {
		_, err := m.AcquireInto(txns[0], k, Exclusive, nil)
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("upgrade granted while another shared holder exists")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(txns[1])
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !m.Holds(txns[0], k, Exclusive) {
		t.Fatal("upgrade not granted")
	}
}

func TestDeadlockDetection(t *testing.T) {
	_, txns := newTxns(2)
	m := NewManagerShards(true, 0)
	kx := RowKey("t", []byte("x"))
	ky := RowKey("t", []byte("y"))
	m.AcquireInto(txns[0], kx, Exclusive, nil)
	m.AcquireInto(txns[1], ky, Exclusive, nil)

	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := m.AcquireInto(txns[0], ky, Exclusive, nil)
		if err != nil {
			m.ReleaseAll(txns[0])
		}
		errs <- err
	}()
	go func() {
		defer wg.Done()
		_, err := m.AcquireInto(txns[1], kx, Exclusive, nil)
		if err != nil {
			m.ReleaseAll(txns[1])
		}
		errs <- err
	}()
	wg.Wait()
	close(errs)
	var deadlocks, oks int
	for err := range errs {
		switch {
		case err == nil:
			oks++
		case errors.Is(err, core.ErrDeadlock):
			deadlocks++
		default:
			t.Fatalf("unexpected error %v", err)
		}
	}
	if deadlocks < 1 {
		t.Fatalf("deadlocks=%d oks=%d, want at least one deadlock", deadlocks, oks)
	}
}

func TestUpgradeDeadlock(t *testing.T) {
	// Two shared holders both upgrading is the classic upgrade deadlock.
	_, txns := newTxns(2)
	m := NewManagerShards(true, 0)
	k := RowKey("t", []byte("x"))
	m.AcquireInto(txns[0], k, Shared, nil)
	m.AcquireInto(txns[1], k, Shared, nil)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := m.AcquireInto(txns[i], k, Exclusive, nil)
			if err != nil {
				m.ReleaseAll(txns[i])
			}
			errs <- err
		}(i)
	}
	var deadlocks int
	for i := 0; i < 2; i++ {
		if errors.Is(<-errs, core.ErrDeadlock) {
			deadlocks++
		}
	}
	if deadlocks < 1 {
		t.Fatal("upgrade deadlock not detected")
	}
}

func TestReacquireIsNoop(t *testing.T) {
	_, txns := newTxns(1)
	m := NewManagerShards(true, 0)
	k := RowKey("t", []byte("x"))
	for i := 0; i < 3; i++ {
		if _, err := m.AcquireInto(txns[0], k, Exclusive, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s := m.StatsSnapshot(); s.Keys != 1 {
		t.Fatalf("Keys = %d, want 1", s.Keys)
	}
}

func TestGapAndRowNamespacesIndependent(t *testing.T) {
	_, txns := newTxns(2)
	m := NewManagerShards(true, 0)
	row := RowKey("t", []byte("c"))
	gap := GapKey("t", []byte("c"))
	if row == gap {
		t.Fatal("row and gap keys must differ")
	}
	m.AcquireInto(txns[0], row, Exclusive, nil)
	done := make(chan error, 1)
	go func() {
		_, err := m.AcquireInto(txns[1], gap, Exclusive, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("gap lock blocked on row lock of same key")
	}
}

func TestGapExclusiveCompatible(t *testing.T) {
	// Two inserts into the same gap must not block each other (InnoDB
	// insert-intention semantics); only a reader's shared gap lock blocks.
	mgr, txns := newTxns(3)
	m := NewManagerShards(true, 0)
	g := GapKey("t", []byte("z"))
	if _, err := m.AcquireInto(txns[0], g, Exclusive, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.AcquireInto(txns[1], g, Exclusive, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("gap X blocked on gap X")
	}
	// A shared gap lock (S2PL scan) blocks a new insert into the gap.
	m.ReleaseAll(txns[0])
	m.ReleaseAll(txns[1])
	m.AcquireInto(txns[2], g, Shared, nil)
	blocked := make(chan struct{})
	inserter := mgr.Begin(core.SerializableSI) // a released owner takes no new lock
	go func() {
		m.AcquireInto(inserter, g, Exclusive, nil)
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("insert not blocked by shared gap lock")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(txns[2])
	select {
	case <-blocked:
	case <-time.After(time.Second):
		t.Fatal("insert not granted after scan released")
	}
}

func TestSupremumGapKeyDistinct(t *testing.T) {
	sup := SupremumGapKey("t")
	if sup == GapKey("t", nil) || sup == GapKey("t", []byte{}) {
		t.Fatal("supremum key collides with empty gap key")
	}
	if sup.Kind != GapSupremum {
		t.Fatalf("kind = %v", sup.Kind)
	}
}

func TestManyWaitersWakeUp(t *testing.T) {
	_, txns := newTxns(9)
	m := NewManagerShards(true, 0)
	k := RowKey("t", []byte("hot"))
	m.AcquireInto(txns[0], k, Exclusive, nil)
	var wg sync.WaitGroup
	for i := 1; i < 9; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := m.AcquireInto(txns[i], k, Shared, nil); err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
		}(i)
	}
	// Release only after every waiter has hit the blocker (each increments
	// Waits on its first blocked probe, spinning or parked) — a fixed sleep
	// would let a slow-to-schedule waiter acquire the freed lock unblocked.
	deadline := time.Now().Add(2 * time.Second)
	for m.StatsSnapshot().Waits < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 8 waiters blocked", m.StatsSnapshot().Waits)
		}
		time.Sleep(time.Millisecond)
	}
	m.ReleaseBlocking(txns[0])
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("shared waiters not all granted after exclusive release")
	}
	// Every blocked acquire must be accounted for as a spin grant or a
	// parked handoff, and handoffs deliver one wakeup per grant.
	st := m.StatsSnapshot()
	if st.Waits != 8 {
		t.Fatalf("Waits = %d, want 8", st.Waits)
	}
	if st.SpinGrants+st.Parks != st.Waits {
		t.Fatalf("spin grants (%d) + parks (%d) != blocked acquires (%d)", st.SpinGrants, st.Parks, st.Waits)
	}
	if st.Wakeups != st.Parks {
		t.Fatalf("Wakeups = %d, want one per park (%d)", st.Wakeups, st.Parks)
	}
}

// TestTryAcquireNeverWaits: TryAcquireInto grants what AcquireInto would
// grant at once — a free key, a compatible mode, a mode already held — with
// the rivals AcquireInto would report, and refuses, holding nothing new and
// counting no wait, where AcquireInto would wait: on an incompatible holder,
// and behind a parked incompatible request. The lock it refused is then
// AcquireInto's to wait for.
func TestTryAcquireNeverWaits(t *testing.T) {
	_, txns := newTxns(4)
	m := NewManagerShards(true, 0)
	k := RowKey("t", []byte("x"))
	try := func(owner *core.Txn, mode Mode) bool {
		rivals, ok := m.TryAcquireInto(owner, k, mode, nil)
		if len(rivals) > 0 {
			t.Fatalf("a %v request on a row reported rivals %v", mode, rivals)
		}
		return ok
	}
	if !try(txns[0], Shared) || !try(txns[1], Shared) || !try(txns[0], Shared) {
		t.Fatal("TryAcquireInto refused a Shared lock no one blocks")
	}
	if try(txns[2], Exclusive) || m.Holds(txns[2], k, Exclusive) {
		t.Fatal("TryAcquireInto granted Exclusive over two Shared holders")
	}
	if st := m.StatsSnapshot(); st.Waits != 0 {
		t.Fatalf("a refused TryAcquireInto counted %d waits", st.Waits)
	}
	// On a page, an Exclusive grant reports the SIREAD holders behind what
	// the buffer held, and an SIREAD grant the Exclusive holder.
	pg := PageKey("t", 3)
	if _, ok := m.TryAcquireInto(txns[3], pg, SIRead, nil); !ok {
		t.Fatal("TryAcquireInto refused an SIREAD")
	}
	if rivals, ok := m.TryAcquireInto(txns[1], pg, Exclusive, []*core.Txn{txns[0]}); !ok || !slices.Equal(rivals, []*core.Txn{txns[0], txns[3]}) {
		t.Fatalf("Exclusive page grant: %v, %v; want the buffer's txn and the SIREAD holder", rivals, ok)
	}
	if rivals, ok := m.TryAcquireInto(txns[0], pg, SIRead, nil); !ok || !slices.Equal(rivals, []*core.Txn{txns[1]}) {
		t.Fatalf("SIREAD page grant: %v, %v; want the Exclusive holder", rivals, ok)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := m.AcquireInto(txns[2], k, Exclusive, nil)
		parked <- err
	}()
	for m.StatsSnapshot().Parks == 0 {
		time.Sleep(time.Millisecond)
	}
	m.ReleaseAll(txns[0])
	if try(txns[3], Shared) {
		t.Fatal("TryAcquireInto granted Shared ahead of a parked Exclusive request")
	}
	m.ReleaseAll(txns[1])
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	if !m.Holds(txns[2], k, Exclusive) {
		t.Fatal("the parked request does not hold its lock")
	}
}
