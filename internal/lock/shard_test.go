package lock

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ssi/internal/core"
	"ssi/internal/raceflag"
)

// crossShardKeys returns two row keys that map to different shards of m.
func crossShardKeys(t *testing.T, m *Manager) (Key, Key) {
	t.Helper()
	if len(m.shards) < 2 {
		t.Fatal("need a multi-shard manager")
	}
	first := RowKey("t", []byte("k0"))
	for i := 1; i < 10000; i++ {
		k := RowKey("t", []byte(fmt.Sprintf("k%d", i)))
		if m.shardOf(k) != m.shardOf(first) {
			return first, k
		}
	}
	t.Fatal("no cross-shard key pair found")
	return Key{}, Key{}
}

// TestCrossShardDeadlock pins the reason deadlock detection is a dedicated
// component: the wait cycle spans two shards, so no per-shard view can see
// it. One of the two transactions must be chosen as the victim.
func TestCrossShardDeadlock(t *testing.T) {
	mgr := core.NewManager(core.DetectorBasic)
	m := NewManagerShards(true, 8)
	kx, ky := crossShardKeys(t, m)
	txns := []*core.Txn{mgr.Begin(core.S2PL), mgr.Begin(core.S2PL)}
	if _, err := m.AcquireInto(txns[0], kx, Exclusive, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AcquireInto(txns[1], ky, Exclusive, nil); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i, want := range []Key{ky, kx} {
		wg.Add(1)
		go func(i int, want Key) {
			defer wg.Done()
			_, err := m.AcquireInto(txns[i], want, Exclusive, nil)
			if err != nil {
				m.ReleaseAll(txns[i])
			}
			errs <- err
		}(i, want)
	}
	wg.Wait()
	close(errs)
	deadlocks := 0
	for err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, core.ErrDeadlock):
			deadlocks++
		default:
			t.Fatalf("unexpected error %v", err)
		}
	}
	if deadlocks < 1 {
		t.Fatal("cross-shard deadlock not detected")
	}
}

// TestCrossShardDeadlockBeatsTimeout pins the precedence of the two escape
// hatches: when a genuine cross-shard cycle exists, immediate deadlock
// detection must fire (choosing a victim) rather than both transactions
// stalling until the wait timeout — the timeout is only for non-cycle
// wedges.
func TestCrossShardDeadlockBeatsTimeout(t *testing.T) {
	mgr := core.NewManager(core.DetectorBasic)
	m := NewManagerShards(true, 8)
	m.SetWaitTimeout(10 * time.Second) // far beyond the test's patience
	kx, ky := crossShardKeys(t, m)
	txns := []*core.Txn{mgr.Begin(core.S2PL), mgr.Begin(core.S2PL)}
	if _, err := m.AcquireInto(txns[0], kx, Exclusive, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AcquireInto(txns[1], ky, Exclusive, nil); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for i, want := range []Key{ky, kx} {
		go func(i int, want Key) {
			_, err := m.AcquireInto(txns[i], want, Exclusive, nil)
			if err != nil {
				m.ReleaseAll(txns[i])
			}
			errs <- err
		}(i, want)
	}
	deadlocks := 0
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, core.ErrDeadlock) {
				deadlocks++
			} else if err != nil {
				t.Fatalf("unexpected error %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("cycle not broken: waiters stalled toward the timeout")
		}
	}
	if deadlocks < 1 {
		t.Fatal("cross-shard deadlock not detected")
	}
	if st := m.StatsSnapshot(); st.Timeouts != 0 {
		t.Fatalf("deadlock resolved by timeout (%d), not detection", st.Timeouts)
	}
}

// TestInheritSIReadCrossShard checks that SIREAD inheritance works when the
// source and destination keys live in different shards (both shard mutexes
// are held for the copy).
func TestInheritSIReadCrossShard(t *testing.T) {
	mgr := core.NewManager(core.DetectorBasic)
	m := NewManagerShards(true, 8)
	src, dst := crossShardKeys(t, m)
	owner := mgr.Begin(core.SerializableSI)
	if _, err := m.AcquireInto(owner, src, SIRead, nil); err != nil {
		t.Fatal(err)
	}
	m.Inherit(src, dst)
	if !m.Holds(owner, dst, SIRead) {
		t.Fatal("SIREAD not inherited across shards")
	}
	if !m.HoldsSIRead(owner) {
		t.Fatal("HoldsSIRead = false")
	}
	m.ReleaseAll(owner)
	if s := m.StatsSnapshot(); s.Keys != 0 || s.Owners != 0 {
		t.Fatalf("lock table not empty after ReleaseAll: %+v", s)
	}
}

// lockPattern drives a deterministic mixed-mode footprint: n owners, each
// holding SIREAD, Shared and Exclusive locks on disjoint keys across several
// tables. All requests are compatible, so it cannot block.
func lockPattern(t *testing.T, m *Manager, txns []*core.Txn) {
	t.Helper()
	for i, txn := range txns {
		for tbl := 0; tbl < 5; tbl++ {
			table := fmt.Sprintf("tbl%d", tbl)
			for k := 0; k < 4; k++ {
				shared := []byte(fmt.Sprintf("shared%d", k))
				if _, err := m.AcquireInto(txn, RowKey(table, shared), SIRead, nil); err != nil {
					t.Fatal(err)
				}
				own := []byte(fmt.Sprintf("own%d_%d", i, k))
				if _, err := m.AcquireInto(txn, RowKey(table, own), Exclusive, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := m.AcquireInto(txn, GapKey(table, own), Exclusive, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestStatsMatchSingleShard runs the same lock pattern on a single-shard
// manager (the paper's global latch) and a 64-shard manager and checks the
// aggregated census is identical, then that both drain to zero.
func TestStatsMatchSingleShard(t *testing.T) {
	mgr := core.NewManager(core.DetectorPrecise)
	managers := []*Manager{NewManagerShards(true, 1), NewManagerShards(true, 64)}
	var stats []Stats
	var all [][]*core.Txn
	for _, m := range managers {
		txns := make([]*core.Txn, 4)
		for i := range txns {
			txns[i] = mgr.Begin(core.SerializableSI)
		}
		lockPattern(t, m, txns)
		stats = append(stats, m.StatsSnapshot())
		all = append(all, txns)
	}
	if stats[0].Keys == 0 || stats[0].Owners != 4 {
		t.Fatalf("implausible single-shard stats: %+v", stats[0])
	}
	if stats[0].Keys != stats[1].Keys || stats[0].Owners != stats[1].Owners {
		t.Fatalf("sharded census diverges: 1 shard %+v, 64 shards %+v", stats[0], stats[1])
	}
	for i, m := range managers {
		for _, txn := range all[i] {
			m.ReleaseAll(txn)
		}
		if s := m.StatsSnapshot(); s.Keys != 0 || s.Owners != 0 {
			t.Fatalf("manager %d did not drain: %+v", i, s)
		}
	}
}

// TestConcurrentChurnDrains hammers a sharded manager from many goroutines
// with overlapping shared/exclusive/SIREAD footprints and verifies the
// census returns to zero — per-shard ownership bookkeeping must not leak
// entries whatever interleaving releases take — and the books of every owner
// are empty (checkBooks).
func TestConcurrentChurnDrains(t *testing.T) {
	mgr := core.NewManager(core.DetectorPrecise)
	m := NewManagerShards(true, 16)
	var wg sync.WaitGroup
	var owners [8][200]*core.Txn
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				txn := mgr.Begin(core.SerializableSI)
				owners[g][i] = txn
				ok := true
				for k := 0; k < 6 && ok; k++ {
					key := RowKey(fmt.Sprintf("tbl%d", k%3), []byte(fmt.Sprintf("hot%d", (g+i+k)%7)))
					mode := []Mode{SIRead, Shared, Exclusive}[(g+i+k)%3]
					if _, err := m.AcquireInto(txn, key, mode, nil); err != nil {
						if !errors.Is(err, core.ErrDeadlock) {
							t.Errorf("acquire: %v", err)
						}
						ok = false
					}
				}
				m.ReleaseAll(txn)
			}
		}(g)
	}
	wg.Wait()
	if s := m.StatsSnapshot(); s.Keys != 0 || s.Owners != 0 {
		t.Fatalf("lock table leaked after churn: %+v", s)
	}
	for g := range owners {
		checkBooks(t, m, owners[g][:]...)
	}
}

// TestShardCountRounding pins the NewManagerShards contract: the shard count,
// and a panic if asked to turn the §3.7.3 upgrade off.
func TestShardCountRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {100, 128}, {1000, 256},
	} {
		if got := NewManagerShards(true, c.in).Shards(); got != c.want {
			t.Fatalf("NewManagerShards(%d).Shards() = %d, want %d", c.in, got, c.want)
		}
	}
	if got, want := NewManagerShards(true, 0).Shards(), core.ShardCount(0); got != want {
		t.Fatalf("NewManagerShards(0).Shards() = %d, want core.ShardCount's default %d", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewManagerShards(false, 1) did not panic")
		}
	}()
	NewManagerShards(false, 1)
}

// TestSIReadBatchGroupsByShard pins the batch acquire's group-by-shard step
// (a counting sort into recycled scratch): whatever the shard count, every
// key of the batch is granted, each exclusive holder found on a page is
// reported once (a row's or a gap's is not reported, as AcquireInto does not),
// the caller's key slice is left as it was, and a repeated batch allocates
// no per-call grouping state.
func TestSIReadBatchGroupsByShard(t *testing.T) {
	for _, shards := range []int{1, 2, 8, 256} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			mgr := core.NewManager(core.DetectorBasic)
			m := NewManagerShards(true, shards)
			var keys []Key
			for i := 0; i < 300; i++ {
				k := []byte(fmt.Sprintf("k%04d", i))
				keys = append(keys, RowKey("t", k), GapKey("t", k), PageKey("t", uint32(i)))
			}
			keys = append(keys, SupremumGapKey("t"), keys[0]) // a repeated key is harmless
			orig := append([]Key(nil), keys...)

			writers := []*core.Txn{mgr.Begin(core.SerializableSI), mgr.Begin(core.SerializableSI)}
			// Key 3i is row i, 3i+1 its gap, 3i+2 page i: writers[0] holds
			// row 10 and pages 10 and 200, writers[1] gap 133 and row 134.
			for i, at := range [][]int{{30, 32, 602}, {400, 402}} {
				for _, k := range at {
					if _, err := m.AcquireInto(writers[i], keys[k], Exclusive, nil); err != nil {
						t.Fatal(err)
					}
				}
			}

			reader := mgr.Begin(core.SerializableSI)
			rivals := m.AcquireSIReadBatchInto(reader, keys, nil)
			if len(rivals) != 1 || rivals[0] != writers[0] {
				t.Errorf("rivals = %v, want the page writer once", rivals)
			}
			for i, k := range keys {
				if k != orig[i] {
					t.Fatalf("batch reordered the caller's keys at %d: %v, was %v", i, k, orig[i])
				}
				if !m.Holds(reader, k, SIRead) {
					t.Errorf("key %v not granted", k)
				}
			}
			if got := listed(stateOf(reader)); got != len(keys)-1 {
				t.Errorf("reader holds %d keys, want %d", got, len(keys)-1)
			}

			// Re-acquiring grants nothing new, so what is left to allocate
			// is the grouping itself.
			buf := make([]*core.Txn, 0, 4)
			if avg := testing.AllocsPerRun(50, func() { buf = m.AcquireSIReadBatchInto(reader, keys, buf[:0]) }); avg > 0.5 && !raceflag.Enabled {
				t.Errorf("repeated batch of %d keys over %d shards: %.1f allocs per call, want 0", len(keys), shards, avg)
			}
			m.ReleaseAll(reader)
			for _, w := range writers {
				m.ReleaseAll(w)
			}
		})
	}
}
