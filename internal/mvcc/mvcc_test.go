package mvcc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"ssi/internal/core"
)

type fixture struct {
	m  *core.Manager
	tb *Table
}

func newFixture() *fixture {
	// Four partitions so every test exercises the hash-routed paths; the
	// single-shard behaviour is covered by the oracle comparisons below.
	m := core.NewManager(core.DetectorPrecise)
	f := &fixture{m: m}
	f.tb = NewTable("t", Config{PageMaxKeys: 8, Shards: 4, Horizon: m.OldestActiveSnapshot})
	return f
}

func (f *fixture) commit(t *testing.T, txn *core.Txn) core.TS {
	t.Helper()
	ct, err := f.m.CommitPrepare(txn)
	if err != nil {
		t.Fatal(err)
	}
	f.m.Finish(txn, false)
	return ct
}

func (f *fixture) put(t *testing.T, key, val string) core.TS {
	t.Helper()
	txn := f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(txn)
	f.tb.Write(txn, []byte(key), []byte(val), false, nil)
	return f.commit(t, txn)
}

// retireRows wires m's retire hook the way the engine wires it: a committed
// writer hands its rows to FinishWith, and once it retires, a Pruner cuts
// what it superseded on each.
func retireRows(m *core.Manager) {
	m.SetRetireHook(func(batch []core.Retired) {
		var p Pruner
		for _, r := range batch {
			rows, _ := r.Payload.([]Row)
			for _, row := range rows {
				p.Add(row, r.Txn.CommitTS())
			}
		}
		p.Flush()
	})
}

// row is Locate for a key the test knows to have a row.
func (f *fixture) row(t *testing.T, key string) Row {
	t.Helper()
	r, ok := f.tb.Locate([]byte(key))
	if !ok {
		t.Fatalf("no row for %q", key)
	}
	return r
}

// newestCommit is row's First-Committer-Wins stamp as a locked read by
// reader, which wrote nothing there, finds it: the commit timestamp of the
// version a read at the latest timestamp sees — the newest committed one — or
// 0 if it sees none.
func newestCommit(row Row, reader *core.Txn) core.TS {
	if res := row.Read(reader, math.MaxUint64); res.VisibleCreator != nil {
		return res.VisibleCreator.CommitTS()
	}
	return 0
}

func TestSnapshotVisibility(t *testing.T) {
	f := newFixture()
	f.put(t, "x", "v1")

	reader := f.m.Begin(core.SnapshotIsolation)
	snap := f.m.AssignSnapshot(reader)

	f.put(t, "x", "v2") // committed after reader's snapshot

	res := f.tb.Read(reader, snap, []byte("x"))
	if !res.Found || string(res.Value) != "v1" {
		t.Fatalf("read %q found=%v, want v1", res.Value, res.Found)
	}
	if len(res.NewerWriters) != 1 {
		t.Fatalf("NewerWriters = %d, want 1", len(res.NewerWriters))
	}

	// A fresh snapshot sees v2 and no newer writers.
	r2 := f.m.Begin(core.SnapshotIsolation)
	s2 := f.m.AssignSnapshot(r2)
	res = f.tb.Read(r2, s2, []byte("x"))
	if string(res.Value) != "v2" || len(res.NewerWriters) != 0 {
		t.Fatalf("fresh read = %q, newer=%d", res.Value, len(res.NewerWriters))
	}
}

func TestOwnWritesVisible(t *testing.T) {
	f := newFixture()
	f.put(t, "x", "v1")
	txn := f.m.Begin(core.SnapshotIsolation)
	snap := f.m.AssignSnapshot(txn)
	f.tb.Write(txn, []byte("x"), []byte("mine"), false, nil)
	res := f.tb.Read(txn, snap, []byte("x"))
	if string(res.Value) != "mine" {
		t.Fatalf("own write invisible: %q", res.Value)
	}
	// Another concurrent transaction still sees v1 and no newer committed
	// version, but does see the uncommitted writer as newer.
	other := f.m.Begin(core.SnapshotIsolation)
	so := f.m.AssignSnapshot(other)
	res = f.tb.Read(other, so, []byte("x"))
	if string(res.Value) != "v1" {
		t.Fatalf("concurrent read = %q, want v1", res.Value)
	}
	if len(res.NewerWriters) != 1 || res.NewerWriters[0] != txn {
		t.Fatalf("uncommitted writer not reported: %v", res.NewerWriters)
	}
}

func TestUncommittedInvisible(t *testing.T) {
	f := newFixture()
	w := f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(w)
	f.tb.Write(w, []byte("x"), []byte("dirty"), false, nil)

	r := f.m.Begin(core.SnapshotIsolation)
	sr := f.m.AssignSnapshot(r)
	if res := f.tb.Read(r, sr, []byte("x")); res.Found {
		t.Fatalf("dirty read: %q", res.Value)
	}
}

func TestTombstoneVisibility(t *testing.T) {
	f := newFixture()
	f.put(t, "x", "v1")
	del := f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(del)
	f.tb.Write(del, []byte("x"), nil, true, nil)

	before := f.m.Begin(core.SnapshotIsolation)
	sb := f.m.AssignSnapshot(before)
	f.commit(t, del)

	// A snapshot taken before the delete still sees v1.
	if res := f.tb.Read(before, sb, []byte("x")); !res.Found || string(res.Value) != "v1" {
		t.Fatalf("pre-delete snapshot read = %v %q", res.Found, res.Value)
	}
	// A snapshot after sees the tombstone: absent, creator attributed.
	after := f.m.Begin(core.SnapshotIsolation)
	sa := f.m.AssignSnapshot(after)
	res := f.tb.Read(after, sa, []byte("x"))
	if res.Found {
		t.Fatal("deleted key visible")
	}
	if res.VisibleCreator == nil || res.VisibleCreator.ID() != del.ID() {
		t.Fatal("tombstone creator not attributed")
	}
}

func TestRollbackRestoresChain(t *testing.T) {
	f := newFixture()
	f.put(t, "x", "v1")
	w := f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(w)
	f.tb.Write(w, []byte("x"), []byte("bad"), false, nil)
	f.tb.Write(w, []byte("y"), []byte("new"), false, nil)
	f.row(t, "x").Rollback(w)
	f.row(t, "y").Rollback(w)
	f.m.Abort(w)

	r := f.m.Begin(core.SnapshotIsolation)
	sr := f.m.AssignSnapshot(r)
	if res := f.tb.Read(r, sr, []byte("x")); string(res.Value) != "v1" {
		t.Fatalf("x = %q after rollback", res.Value)
	}
	if res := f.tb.Read(r, sr, []byte("y")); res.Found {
		t.Fatal("rolled-back insert visible")
	}
	if len(f.tb.Read(r, sr, []byte("x")).NewerWriters) != 0 {
		t.Fatal("aborted writer still reported as newer")
	}
}

func TestSecondWriteSameTxnCollapses(t *testing.T) {
	f := newFixture()
	w := f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(w)
	f.tb.Write(w, []byte("x"), []byte("a"), false, nil)
	f.tb.Write(w, []byte("x"), []byte("b"), false, nil)
	f.row(t, "x").Rollback(w) // one rollback must remove everything
	f.m.Abort(w)
	if res := f.row(t, "x").Read(w, math.MaxUint64); res.VisibleCreator != nil || len(res.NewerWriters) != 0 {
		t.Fatal("chain not empty after rollback of double write")
	}
}

// TestNewestCommitTSForFCW: the newest committed version of a row, which a
// locked read's First-Committer-Wins check compares with its snapshot, is
// what a read at the latest timestamp sees, whatever is pending above it.
func TestNewestCommitTSForFCW(t *testing.T) {
	f := newFixture()
	r := f.m.Begin(core.SnapshotIsolation)
	defer f.m.Abort(r)
	ct1 := f.put(t, "x", "v1")
	if got := newestCommit(f.row(t, "x"), r); got != ct1 {
		t.Fatalf("newest commit = %d, want %d", got, ct1)
	}
	// An uncommitted head does not change the committed watermark.
	w := f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(w)
	f.tb.Write(w, []byte("x"), []byte("pending"), false, nil)
	if got := newestCommit(f.row(t, "x"), r); got != ct1 {
		t.Fatalf("newest commit with pending head = %d, want %d", got, ct1)
	}
	ct2 := f.commit(t, w)
	if got := newestCommit(f.row(t, "x"), r); got != ct2 {
		t.Fatalf("newest commit = %d, want %d", got, ct2)
	}
}

func TestReadLatest(t *testing.T) {
	f := newFixture()
	f.put(t, "x", "v1")
	// A locking read is a read at the largest timestamp: the newest committed
	// version whatever the reader's snapshot, its own pending one, and never
	// another transaction's.
	const latest = ^core.TS(0)
	reader := f.m.Begin(core.S2PL)
	res := f.row(t, "x").Read(reader, latest)
	if !res.Found || string(res.Value) != "v1" || res.VisibleCreator == nil {
		t.Fatalf("locking read = %q %v", res.Value, res.Found)
	}
	if f.tb.Read(reader, latest, []byte("missing")).Found {
		t.Fatal("locking read found missing key")
	}
	w := f.m.Begin(core.S2PL)
	f.tb.Write(w, []byte("x"), []byte("pending"), false, nil)
	if res := f.row(t, "x").Read(reader, latest); string(res.Value) != "v1" || len(res.NewerWriters) != 1 {
		t.Fatalf("locking read beside a pending write = %q, %d newer writers", res.Value, len(res.NewerWriters))
	}
	if res := f.row(t, "x").Read(w, latest); string(res.Value) != "pending" {
		t.Fatalf("the writer's own locking read = %q", res.Value)
	}
}

func TestVacuumPrunesChains(t *testing.T) {
	f := newFixture()
	// 40 committed versions with no concurrent readers: a vacuum sweep must
	// cut the chain down to the visible version.
	for i := 0; i < 40; i++ {
		f.put(t, "x", fmt.Sprintf("v%d", i))
	}
	st := f.tb.Vacuum()
	if st.VersionsPruned < 30 {
		t.Fatalf("vacuum pruned %d versions, want most of 39", st.VersionsPruned)
	}
	if n := f.chainLen("x"); n != 1 {
		t.Fatalf("chain kept %d versions after vacuum, want 1", n)
	}
	// Latest value still correct.
	r := f.m.Begin(core.SnapshotIsolation)
	sr := f.m.AssignSnapshot(r)
	if res := f.tb.Read(r, sr, []byte("x")); string(res.Value) != "v39" {
		t.Fatalf("after pruning read %q", res.Value)
	}
}

func (f *fixture) chainLen(key string) int {
	sh := f.tb.shardOf([]byte(key))
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	cv, ok := sh.tree.Get([]byte(key))
	if !ok {
		return 0
	}
	n := 0
	for v := cv.first(); v != nil; v = v.older {
		n++
	}
	return n
}

// TestVacuumRespectsOldSnapshot: versions an active snapshot can still read
// must survive a sweep; once the snapshot finishes, they go.
func TestVacuumRespectsOldSnapshot(t *testing.T) {
	f := newFixture()
	f.put(t, "x", "v0")
	reader := f.m.Begin(core.SnapshotIsolation)
	snap := f.m.AssignSnapshot(reader)
	f.put(t, "x", "v1")
	f.put(t, "x", "v2")

	f.tb.Vacuum()
	if res := f.tb.Read(reader, snap, []byte("x")); string(res.Value) != "v0" {
		t.Fatalf("vacuum stole the pinned version: read %q, want v0", res.Value)
	}
	if n := f.chainLen("x"); n < 2 {
		t.Fatalf("pinned chain cut to %d versions", n)
	}

	f.m.Abort(reader)
	st := f.tb.Vacuum()
	if st.VersionsPruned == 0 {
		t.Fatal("nothing pruned after the pinning snapshot finished")
	}
	if n := f.chainLen("x"); n != 1 {
		t.Fatalf("chain kept %d versions after unpinned vacuum, want 1", n)
	}
}

// TestMergedScanMatchesSingleShardOracle: a partitioned table's ordered scan
// must produce exactly the sequence a 1-shard table produces for the same
// data — same keys, same order, same visibility. The keyspace is wider than
// ScanChunk so the lock-coupled merge crosses round boundaries (latch drops
// and iterator revalidation) mid-comparison.
func TestMergedScanMatchesSingleShardOracle(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	sharded := NewTable("t", Config{PageMaxKeys: 4, Shards: 8, Horizon: m.OldestActiveSnapshot})
	oracle := NewTable("t", Config{PageMaxKeys: 4, Shards: 1, Horizon: m.OldestActiveSnapshot})
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2*3*ScanChunk; i++ {
		key := []byte(fmt.Sprintf("k%04d", r.Intn(3*ScanChunk)))
		val := []byte(fmt.Sprintf("v%d", i))
		tomb := r.Intn(8) == 0
		txn := m.Begin(core.SnapshotIsolation)
		m.AssignSnapshot(txn)
		sharded.Write(txn, key, val, tomb, nil)
		oracle.Write(txn, key, val, tomb, nil)
		if _, err := m.CommitPrepare(txn); err != nil {
			t.Fatal(err)
		}
		m.Finish(txn, false)
	}
	reader := m.Begin(core.SnapshotIsolation)
	snap := m.AssignSnapshot(reader)
	collect := func(tb *Table, from []byte) []string {
		var out []string
		tb.Scan(reader, snap, from, func(it ScanItem) bool {
			out = append(out, fmt.Sprintf("%s=%s/%v/%v", it.Key, it.Value, it.Found, it.VisibleCreator != nil))
			return true
		})
		return out
	}
	for _, from := range []string{"", "k0050", "k0100x", "zzz"} {
		got, want := collect(sharded, []byte(from)), collect(oracle, []byte(from))
		if len(got) != len(want) {
			t.Fatalf("from %q: sharded %d items, oracle %d", from, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("from %q item %d: sharded %q, oracle %q", from, i, got[i], want[i])
			}
		}
	}
	// Cross-partition successor, as a claim of an absent key finds it,
	// agrees with the oracle everywhere.
	successor := func(tb *Table, key []byte) (string, bool) {
		tb.lockAll()
		defer tb.unlockAll()
		return tb.successorAllLocked(key)
	}
	for i := 0; i < 3*ScanChunk; i++ {
		key := []byte(fmt.Sprintf("k%04d", i))
		gs, gok := successor(sharded, key)
		ws, wok := successor(oracle, key)
		if gok != wok || gs != ws {
			t.Fatalf("Successor(%s): sharded %q/%v, oracle %q/%v", key, gs, gok, ws, wok)
		}
	}
}

// noLocks is a Locker for writers that coordinate by no lock: no head holds
// its row, no probe blocks, an insert has no gap locks to move, and no
// registered reader is the writer.
type noLocks struct{}

func (noLocks) Holds(*core.Txn) bool                 { return false }
func (noLocks) Probe(string, string) bool            { return false }
func (noLocks) ProbeGap(string, string, bool) bool   { return false }
func (noLocks) Inherit(string, string, string, bool) {}
func (noLocks) Reader(uint32) bool                   { return false }

// TestPartitionedStoreRaceStress hammers one partitioned table with
// concurrent claims (structural inserts under every latch among them),
// tombstones, merged scans, retirement pruning and Vacuum walks; run under
// -race it checks the latch discipline (single-shard point ops and pruning,
// ordered all-shard scans and structural inserts, chunked vacuum) for data
// races and deadlocks.
func TestPartitionedStoreRaceStress(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	retireRows(m)
	tb := NewTable("t", Config{PageMaxKeys: 4, Shards: 4, Horizon: m.OldestActiveSnapshot})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < 400; i++ {
				txn := m.Begin(core.SnapshotIsolation)
				snap := m.AssignSnapshot(txn)
				key := []byte(fmt.Sprintf("k%03d", r.Intn(64)))
				var rows []Row
				switch r.Intn(4) {
				case 0: // a claim, which inserts an absent key under every latch
					row, _ := tb.Locate(key)
					rows = append(rows, tb.Claim(txn, key, row, Intent{Data: []byte{byte(i)}}, noLocks{}).Row)
				case 1: // tombstone
					row, _ := tb.Write(txn, key, nil, true, nil)
					rows = append(rows, row)
				case 2: // merged scan
					tb.Scan(txn, snap, nil, func(it ScanItem) bool { return true })
				default:
					tb.Read(txn, snap, key)
				}
				if r.Intn(2) == 0 {
					if _, err := m.CommitPrepare(txn); err == nil {
						m.FinishWith(txn, false, rows)
					}
				} else {
					if row, ok := tb.Locate(key); ok {
						row.Rollback(txn)
					}
					m.Abort(txn)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				tb.Vacuum()
			}
		}
	}()
	wg.Wait()
	close(done)
	reader := m.Begin(core.SnapshotIsolation)
	snap := m.AssignSnapshot(reader)
	prev, first := "", true
	tb.Scan(reader, snap, nil, func(it ScanItem) bool {
		if !first && prev >= it.Key {
			t.Fatalf("merged scan out of order: %q then %q", prev, it.Key)
		}
		prev, first = it.Key, false
		return true
	})
}

func TestScanVisitsInvisibleKeys(t *testing.T) {
	f := newFixture()
	f.put(t, "a", "1")
	reader := f.m.Begin(core.SnapshotIsolation)
	snap := f.m.AssignSnapshot(reader)
	f.put(t, "b", "2") // invisible to reader

	var keys []string
	var newer int
	f.tb.Scan(reader, snap, nil, func(it ScanItem) bool {
		keys = append(keys, it.Key)
		newer += len(it.NewerWriters)
		return true
	})
	if len(keys) != 2 {
		t.Fatalf("scan visited %v, want both keys (phantom detection needs invisible ones)", keys)
	}
	if newer != 1 {
		t.Fatalf("scan reported %d newer writers, want 1", newer)
	}
}

// TestScanWriterProgress is the writer-stall regression test: a long scan
// with an artificially slow consumer (the callback sleeps, so latch holds
// are dominated by the scan, exactly the analytic-scan regime) must not
// stall point writers or structural inserters for its whole duration — the
// lock-coupled rounds bound any writer's wait to one round. With the old
// hold-everything scan, every write below waited for the entire scan. Both
// halves are counts: writes complete while the scan is in flight, and the
// scan takes and releases the latches once per ScanChunk keys it visits
// (ScanRounds). A wall-clock bound on the writers' latency read a writer
// goroutine the scheduler left waiting as one the scan stalled.
func TestScanWriterProgress(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	tb := NewTable("t", Config{PageMaxKeys: 16, Shards: 4, Horizon: m.OldestActiveSnapshot})
	const keys = 16 * ScanChunk // 16 lock-coupled rounds per full scan
	put := func(key []byte, val string, structural bool) {
		txn := m.Begin(core.SnapshotIsolation)
		m.AssignSnapshot(txn)
		if structural {
			tb.Claim(txn, key, Row{}, Intent{Data: []byte(val)}, noLocks{})
		} else {
			tb.Write(txn, key, []byte(val), false, nil)
		}
		if _, err := m.CommitPrepare(txn); err != nil {
			t.Error(err)
		}
		m.Finish(txn, false)
	}
	for i := 0; i < keys; i++ {
		put([]byte(fmt.Sprintf("k%05d", i)), "v", false)
	}

	reader := m.Begin(core.SnapshotIsolation)
	snap := m.AssignSnapshot(reader)
	var scanDone atomic.Bool
	scanned := 0
	start := time.Now()
	go func() {
		defer scanDone.Store(true)
		tb.Scan(reader, snap, nil, func(it ScanItem) bool {
			scanned++
			if scanned%16 == 0 {
				time.Sleep(time.Millisecond) // throttled consumer
			}
			return true
		})
	}()

	// Writers are paced probes (not throughput hammers, which would just
	// measure single-core scheduler starvation): in-place updates
	// (single-partition latch) and structural inserts (all-partition
	// lockAll) racing the scan on every partition.
	var wg sync.WaitGroup
	var during atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 7))
			for i := 0; !scanDone.Load(); i++ {
				if i%8 == 0 {
					put([]byte(fmt.Sprintf("n%05d-%d-%d", r.Intn(keys), g, i)), "w", true)
				} else {
					put([]byte(fmt.Sprintf("k%05d", r.Intn(keys))), "w", false)
				}
				if !scanDone.Load() {
					during.Add(1)
				}
				time.Sleep(500 * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	scanDur := time.Since(start)
	if scanned < keys {
		t.Fatalf("scan visited %d of %d keys", scanned, keys)
	}
	// The scan slept ≥ 1ms per 16 keys: it reliably spans many rounds.
	if min := time.Duration(keys/16) * time.Millisecond; scanDur < min/2 {
		t.Fatalf("scan finished in %v, expected ≥ %v — throttle broken", scanDur, min/2)
	}
	if n := during.Load(); n < 20 {
		t.Fatalf("only %d writes completed while the scan was in flight — writers stalled for the scan's duration (%v)", n, scanDur)
	}
	// A writer waits for at most the round in progress (1/16th of the scan,
	// ScanChunk/16 sleeps): the scan released the latches after every
	// ScanChunk keys it visited, inserts included. With the old
	// hold-everything scan it took them once.
	rounds := tb.Stats().ScanRounds
	if want := uint64(scanned+ScanChunk-1) / ScanChunk; rounds != want {
		t.Fatalf("a scan of %d keys took the latches %d times, want %d — writers wait for the scan, not a round", scanned, rounds, want)
	}
	t.Logf("scan %v over %d keys in %d rounds; %d writes in flight", scanDur, scanned, rounds, during.Load())
}

// TestVacuumStallRearm: garbage superseded under a pinned snapshot is
// reclaimed by the pin's own end, with no further write and no Vacuum call.
// (A vacuum that parked on a pinned horizon used to need a later write, or a
// sampled watermark delivery, to run again.)
func TestVacuumStallRearm(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	retireRows(m)
	tb := NewTable("t", Config{PageMaxKeys: 8, Shards: 1, Horizon: m.OldestActiveSnapshot})
	pin := m.Begin(core.SnapshotIsolation)
	m.AssignSnapshot(pin)
	for i := 0; i < 24; i++ {
		commitWrite(t, m, tb, []byte("hot"), []byte(fmt.Sprintf("v%d", i)))
	}
	if n := f2chainLen(t, tb, "hot"); n != 24 {
		t.Fatalf("chain holds %d versions under the pin, want all 24", n)
	}
	if pruned := tb.Stats().VersionsPruned; pruned != 0 {
		t.Fatalf("%d versions pruned under the pin", pruned)
	}
	m.Abort(pin)
	if n := f2chainLen(t, tb, "hot"); n != 1 {
		t.Fatalf("chain holds %d versions once the pin ended, want 1", n)
	}
	if st := tb.Stats(); st.VersionsPruned != 23 || st.VacuumRuns != 0 {
		t.Fatalf("the pin's end pruned %d versions in %d vacuum runs, want 23 in none", st.VersionsPruned, st.VacuumRuns)
	}
}

func f2chainLen(t *testing.T, tb *Table, key string) int {
	t.Helper()
	sh := tb.shardOf([]byte(key))
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	cv, ok := sh.tree.Get([]byte(key))
	if !ok {
		return 0
	}
	n := 0
	for v := cv.first(); v != nil; v = v.older {
		n++
	}
	return n
}

// TestVacuumProportionalToGarbage: pruning visits the rows the retiring
// writers wrote and no others. Ten superseding commits in a 10 000-row
// partition prune exactly ten versions and walk ten chains — and so does the
// release of a snapshot that pinned 200 such commits, however wide the
// partition. Only Vacuum walks the partition.
func TestVacuumProportionalToGarbage(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	retireRows(m)
	tb := NewTable("t", Config{PageMaxKeys: 16, Shards: 1, Horizon: m.OldestActiveSnapshot})
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
	const wide = 10000
	for i := 0; i < wide; i++ {
		commitWrite(t, m, tb, key(i), []byte("v"))
	}
	check := func(what string, before TableStats, pruned, visits uint64) {
		t.Helper()
		st := tb.Stats()
		if got := st.VersionsPruned - before.VersionsPruned; got != pruned {
			t.Errorf("%s pruned %d versions, want %d", what, got, pruned)
		}
		if got := st.VacuumKeyVisits - before.VacuumKeyVisits; got != visits {
			t.Errorf("%s walked %d chains, want %d", what, got, visits)
		}
	}
	before := tb.Stats()
	for i := 0; i < 10; i++ {
		commitWrite(t, m, tb, key(i), []byte("w")) // supersede 10 of 10000
	}
	check("10 superseding commits", before, 10, 10)

	pin := m.Begin(core.SnapshotIsolation)
	m.AssignSnapshot(pin)
	for i := 0; i < 200; i++ {
		commitWrite(t, m, tb, key(i), []byte("x"))
	}
	before = tb.Stats()
	m.Abort(pin)
	check("the end of a pin behind 200 superseding commits", before, 200, 200)

	before = tb.Stats()
	tb.Vacuum()
	check("Vacuum", before, 0, wide)
}

// TestOnPath: fn is handed the key's descent path appended behind what the
// caller's buffer already holds, ending at the leaf a scan finds the key on,
// as a scan's flush reads it with PathLocked; a structural call reports a
// split exactly when the insert that follows splits a page; and a buffer that
// has grown once serves later calls without allocating.
func TestOnPath(t *testing.T) {
	f := newFixture()
	for i := 0; i < 200; i++ {
		f.put(t, fmt.Sprintf("k%04d", i*2), "v")
	}
	key := []byte("k0100")
	var seen []uint32
	buf := f.tb.OnPath(key, []uint32{7}, false, func(path []uint32, split bool) {
		seen = slices.Clone(path)
		if split {
			t.Error("a path that plans no insert reported a split")
		}
	})
	if !slices.Equal(buf, seen) || buf[0] != 7 || len(buf) < 3 {
		t.Fatalf("returned %v, fn saw %v: want the same multi-level path behind the prefix 7", buf, seen)
	}
	var leaf uint32
	var locked []uint32
	f.tb.ScanWith(nil, 1, key, func(it ScanItem) bool {
		leaf = it.Page
		return false
	}, func(bool) bool {
		locked = f.tb.PathLocked(nil, key)
		return true
	})
	if path := buf[1:]; path[len(path)-1] != leaf || !slices.Equal(path, locked) {
		t.Errorf("path %v, in a scan's flush %v: want the same path, ending at the scanned leaf %d", path, locked, leaf)
	}
	splits := 0
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("k%04d", i*10+1)
		var willSplit bool
		f.tb.OnPath([]byte(k), nil, true, func(_ []uint32, split bool) { willSplit = split })
		pages := f.tb.PageCount()
		f.put(t, k, "v")
		if split := f.tb.PageCount() > pages; split != willSplit {
			t.Fatalf("insert of %s: OnPath said split %v, the insert split %v", k, willSplit, split)
		} else if split {
			splits++
		}
	}
	if splits == 0 || splits == 40 {
		t.Fatalf("%d of 40 inserts split a page: want both kinds", splits)
	}
	if avg := testing.AllocsPerRun(20, func() {
		buf = f.tb.OnPath(key, buf[:0], true, func([]uint32, bool) {})
	}); avg != 0 {
		t.Errorf("%.1f allocs per call into a grown buffer, want 0", avg)
	}
}

// TestFoldedHead: the newest version of a key lives inside its chain, so a
// superseding write, a rollback and a vacuum all rewrite the head in place.
// None of that may show: after every step each open reader still sees what
// its snapshot saw before, and the chain lists exactly the versions a reader
// could still need, newest first — the oldest of them frozen once it was
// committed before every snapshot.
func TestFoldedHead(t *testing.T) {
	if got := unsafe.Sizeof(chain{}); got != 32 {
		t.Fatalf("a chain is %d bytes, want the 32 of its head version alone", got)
	}
	f := newFixture()
	key := []byte("x")
	type entry struct {
		data      string
		creator   uint64
		tombstone bool
	}
	versions := func() []entry { // the chain, newest first
		sh := f.tb.shardOf(key)
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		c, _ := sh.tree.Get(key)
		var out []entry
		for v := c.first(); v != nil; v = v.older {
			out = append(out, entry{string(v.Data()), v.creator.ID(), v.tombstone()})
		}
		return out
	}
	dump := func() string { return fmt.Sprint(versions()) }
	type reader struct {
		txn  *core.Txn
		snap core.TS
		want string
	}
	var readers []reader
	open := func(want string) {
		txn := f.m.Begin(core.SnapshotIsolation)
		readers = append(readers, reader{txn, f.m.AssignSnapshot(txn), want})
	}
	check := func(step, wantChain string) {
		t.Helper()
		for i, r := range readers {
			got := "absent"
			if res := f.tb.Read(r.txn, r.snap, key); res.Found {
				got = string(res.Value)
			}
			if got != r.want {
				t.Errorf("%s: reader %d sees %s, its snapshot saw %s", step, i, got, r.want)
			}
		}
		if wantChain != "" && dump() != wantChain {
			t.Errorf("%s: chain is %s, want %s", step, dump(), wantChain)
		}
	}

	// write → rollback → write on a key that did not exist.
	w := f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(w)
	f.tb.Write(w, key, []byte("lost"), false, nil)
	f.row(t, "x").Rollback(w)
	f.m.Abort(w)
	open("absent")
	check("first insert rolled back", "[]")
	f.put(t, "x", "v1")
	open("v1")
	v1 := dump()
	check("insert", v1)

	// A superseding write and its rollback put the old head back, whole.
	w = f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(w)
	f.tb.Write(w, key, nil, true, nil)
	f.tb.Write(w, key, []byte("pending"), false, nil) // replaces its own tombstone in place
	if res := f.tb.Read(w, w.Snapshot(), key); string(res.Value) != "pending" {
		t.Errorf("the writer reads %q back, want its own pending version", res.Value)
	}
	check("superseding write pending", "")
	f.row(t, "x").Rollback(w)
	f.m.Abort(w)
	check("superseding write rolled back", v1)

	// Committed superseding writes stack up behind the head...
	f.put(t, "x", "v2")
	open("v2")
	f.put(t, "x", "v3")
	open("v3")
	v321 := versions()
	if len(v321) != 3 {
		t.Fatalf("chain is %v, want three versions", v321)
	}
	// ...and the vacuum cuts from the far end only what no reader can reach:
	// nothing while the oldest snapshot predates v1, then one version for every
	// reader that leaves. The version it stops at is the oldest open snapshot's
	// and was committed before every snapshot: it is frozen, its creator the
	// shared core.Frozen cell.
	f.tb.Vacuum()
	check("vacuum, all readers open", fmt.Sprint(v321))
	for i, wantLen := range []int{3, 2, 1} { // closing the readers of: nothing, v1, v2
		f.m.Abort(readers[0].txn)
		readers = readers[1:]
		f.tb.Vacuum()
		want := slices.Clone(v321[:wantLen])
		want[wantLen-1].creator = core.FrozenID
		check(fmt.Sprintf("vacuum, %d readers closed", i+1), fmt.Sprint(want))
	}
}
