package lock

import (
	"fmt"
	"sync"
	"testing"

	"ssi/internal/core"
)

func BenchmarkAcquireReleaseExclusive(b *testing.B) {
	mgr := core.NewManager(core.DetectorPrecise)
	m := NewManagerShards(true, 0)
	keys := make([]Key, 1024)
	for i := range keys {
		keys[i] = RowKey("t", []byte(fmt.Sprintf("k%04d", i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := mgr.Begin(core.SnapshotIsolation)
		m.AcquireInto(t, keys[i%len(keys)], Exclusive, nil)
		m.ReleaseAll(t)
	}
}

func BenchmarkSIReadBatch100(b *testing.B) {
	mgr := core.NewManager(core.DetectorPrecise)
	m := NewManagerShards(true, 0)
	keys := make([]Key, 100)
	for i := range keys {
		keys[i] = RowKey("t", []byte(fmt.Sprintf("k%04d", i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := mgr.Begin(core.SerializableSI)
		m.AcquireSIReadBatchInto(t, keys, nil)
		m.ReleaseAll(t)
	}
}

// BenchmarkHandoffPingPong measures the contended path end to end: two
// owners alternate an exclusive lock on one key, so nearly every acquire
// blocks and every release hands the lock off (by spin grant or park).
func BenchmarkHandoffPingPong(b *testing.B) {
	mgr := core.NewManager(core.DetectorPrecise)
	m := NewManagerShards(true, 0)
	k := RowKey("t", []byte("pp"))
	var wg sync.WaitGroup
	iters := b.N
	b.ResetTimer()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				t := mgr.Begin(core.S2PL)
				if _, err := m.AcquireInto(t, k, Exclusive, nil); err != nil {
					b.Error(err)
					return
				}
				m.ReleaseAll(t)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkHotEntryRivalCheck measures the counter fast path: many SIREAD
// holders on one key (a root page), a writer probing for rivals.
func BenchmarkHotEntryRivalCheck(b *testing.B) {
	mgr := core.NewManager(core.DetectorPrecise)
	m := NewManagerShards(true, 0)
	hot := PageKey("t", 1)
	for i := 0; i < 500; i++ {
		m.AcquireInto(mgr.Begin(core.SerializableSI), hot, SIRead, nil)
	}
	cold := RowKey("t", []byte("x"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := mgr.Begin(core.SerializableSI)
		m.AcquireInto(t, cold, SIRead, nil) // counter short-circuit: no iteration
		m.ReleaseAll(t)
	}
}

// BenchmarkPointTxnLocks is the lock-table work of one kv-uniform transaction:
// a fresh owner takes SIREAD locks on 4 keys and exclusive locks on 2 others,
// in a table that long-lived readers keep populated, then commits
// (ReleaseBlocking) and is cleaned up (ReleaseAll). Owners are begun outside
// the timer, a chunk at a time; the locking allocates nothing.
func BenchmarkPointTxnLocks(b *testing.B) {
	mgr := core.NewManager(core.DetectorPrecise)
	m := NewManagerShards(true, 8)
	for i := 0; i < 1024; i++ {
		r := mgr.Begin(core.SerializableSI)
		if _, err := m.AcquireInto(r, RowKey("t", []byte(fmt.Sprintf("p%05d", i))), SIRead, nil); err != nil {
			b.Fatal(err)
		}
	}
	keys := make([]Key, 4096)
	for i := range keys {
		keys[i] = RowKey("t", []byte(fmt.Sprintf("k%05d", i)))
	}
	owners := make([]*core.Txn, 1024)
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(owners) {
		b.StopTimer()
		n := min(len(owners), b.N-i)
		for j := range owners[:n] {
			owners[j] = mgr.Begin(core.SerializableSI)
		}
		b.StartTimer()
		for _, o := range owners[:n] {
			for j := 0; j < 6; j++ {
				mode := SIRead
				if j >= 4 {
					mode = Exclusive
				}
				m.AcquireInto(o, keys[next], mode, nil)
				next = (next + 1) % len(keys)
			}
			m.ReleaseBlocking(o)
			m.ReleaseAll(o)
		}
		b.StopTimer()
		for _, o := range owners[:n] {
			mgr.Abort(o)
		}
		b.StartTimer()
	}
}
