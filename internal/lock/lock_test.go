package lock

import (
	"errors"
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
	if _, err := m.Acquire(txns[0], k, Shared); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Acquire(txns[1], k, Shared)
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
	if _, err := m.Acquire(txns[0], k, Exclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		m.Acquire(txns[1], k, Shared)
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

func TestSIReadNeverBlocksOrIsBlocked(t *testing.T) {
	_, txns := newTxns(3)
	m := NewManagerShards(true, 0)
	k := RowKey("t", []byte("x"))
	if _, err := m.Acquire(txns[0], k, Exclusive); err != nil {
		t.Fatal(err)
	}
	// SIREAD under a held exclusive lock must be granted immediately and
	// report the exclusive holder as a rival (thesis Figure 3.4).
	rivals, err := m.Acquire(txns[1], k, SIRead)
	if err != nil {
		t.Fatal(err)
	}
	if len(rivals) != 1 || rivals[0] != txns[0] {
		t.Fatalf("SIREAD rivals = %v, want [txn0]", rivals)
	}
	// A new exclusive request must not block on the SIREAD lock, only on
	// the other exclusive; after release, it reports the SIREAD holder.
	m.ReleaseBlocking(txns[0])
	rivals, err = m.Acquire(txns[2], k, Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	if len(rivals) != 1 || rivals[0] != txns[1] {
		t.Fatalf("EXCLUSIVE rivals = %v, want [txn1]", rivals)
	}
}

func TestSIReadSurvivesReleaseBlocking(t *testing.T) {
	_, txns := newTxns(1)
	m := NewManagerShards(true, 0)
	k := RowKey("t", []byte("x"))
	m.Acquire(txns[0], k, SIRead)
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
			m.Acquire(txns[0], k, SIRead)
			m.Acquire(txns[0], k, Exclusive)
			if !m.Holds(txns[0], k, Exclusive) {
				t.Fatal("exclusive not held after upgrade")
			}
			if kept := m.Holds(txns[0], k, SIRead); kept == c.upgrade {
				t.Fatalf("SIREAD kept %v after the owner's EXCLUSIVE", kept)
			}
			if kept := m.HoldsSIRead(txns[0]); kept == c.upgrade {
				t.Fatalf("HoldsSIRead = %v after the owner's EXCLUSIVE", kept)
			}
			m.Acquire(txns[0], k, SIRead)
			m.AcquireSIReadBatchInto(txns[0], []Key{k}, nil)
			if kept := m.Holds(txns[0], k, SIRead); kept == c.upgrade {
				t.Fatalf("SIREAD held %v when re-acquired under the owner's EXCLUSIVE", kept)
			}
			checkOwner(t, m, txns[0])
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
	m.Acquire(txns[0], k, SIRead)
	if readers, blocked := m.Probe(txns[0], k, nil); blocked || len(readers) != 0 {
		t.Fatalf("Probe by the only reader: readers %v, blocked %v", readers, blocked)
	}
	if m.Holds(txns[0], k, SIRead) || m.HoldsSIRead(txns[0]) {
		t.Fatal("the prober kept its SIREAD on the row")
	}
	if s := m.StatsSnapshot(); s.Keys != 0 {
		t.Fatalf("%d lock-table keys after the probe, want 0", s.Keys)
	}
	checkOwner(t, m, txns[0])

	m.Acquire(txns[0], other, SIRead)
	m.Acquire(txns[1], other, SIRead)
	readers, blocked := m.Probe(txns[0], other, nil)
	if blocked || len(readers) != 1 || readers[0] != txns[1] {
		t.Fatalf("Probe beside another reader: readers %v, blocked %v", readers, blocked)
	}
	if m.Holds(txns[0], other, SIRead) || !m.Holds(txns[1], other, SIRead) {
		t.Fatal("Probe dropped the wrong SIREAD")
	}
	checkOwner(t, m, txns[0])
	checkOwner(t, m, txns[1])
}

func TestSharedToExclusiveUpgrade(t *testing.T) {
	_, txns := newTxns(2)
	m := NewManagerShards(true, 0)
	k := RowKey("t", []byte("x"))
	m.Acquire(txns[0], k, Shared)
	m.Acquire(txns[1], k, Shared)
	done := make(chan error, 1)
	go func() {
		_, err := m.Acquire(txns[0], k, Exclusive)
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
	m.Acquire(txns[0], kx, Exclusive)
	m.Acquire(txns[1], ky, Exclusive)

	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := m.Acquire(txns[0], ky, Exclusive)
		if err != nil {
			m.ReleaseAll(txns[0])
		}
		errs <- err
	}()
	go func() {
		defer wg.Done()
		_, err := m.Acquire(txns[1], kx, Exclusive)
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
	m.Acquire(txns[0], k, Shared)
	m.Acquire(txns[1], k, Shared)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := m.Acquire(txns[i], k, Exclusive)
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
		if _, err := m.Acquire(txns[0], k, Exclusive); err != nil {
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
	m.Acquire(txns[0], row, Exclusive)
	done := make(chan error, 1)
	go func() {
		_, err := m.Acquire(txns[1], gap, Exclusive)
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
	if _, err := m.Acquire(txns[0], g, Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Acquire(txns[1], g, Exclusive)
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
	m.Acquire(txns[2], g, Shared)
	blocked := make(chan struct{})
	inserter := mgr.Begin(core.SerializableSI) // a released owner takes no new lock
	go func() {
		m.Acquire(inserter, g, Exclusive)
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
	m.Acquire(txns[0], k, Exclusive)
	var wg sync.WaitGroup
	for i := 1; i < 9; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := m.Acquire(txns[i], k, Shared); err != nil {
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
