package core

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"
	"weak"
)

// TestRegShardAllocBudget pins the registry shard at 128 bytes, a size class
// of its own: each shard, allocated on its own, then shares no cache line
// with another, and its two queues (retirement and limbo) must fit beside
// the registry.
func TestRegShardAllocBudget(t *testing.T) {
	if n := unsafe.Sizeof(regShard{}); n != 128 {
		t.Errorf("regShard is %d bytes, want 128", n)
	}
}

// TestRegistryQueue pins the one queue type behind a registry shard's
// retirement queue and its limbo: pushes land in stamp order, a take stops at
// the first stamp the horizon has not passed and at the size of its buffer,
// first follows the head, spent front slots are reused before the array
// grows, and neither a taken slot nor an emptied array keeps an element
// reachable.
func TestRegistryQueue(t *testing.T) {
	newQueue := func() *queue[uint64] {
		q := new(queue[uint64])
		q.first.Store(tsInfinity)
		return q
	}
	// Each element is its own stamp.
	take := func(q *queue[uint64], h uint64, n int) []uint64 {
		out := make([]uint64, n)
		return out[:q.takeLocked(h, out)]
	}

	t.Run("stamp order", func(t *testing.T) {
		q := newQueue()
		for _, s := range []uint64{2, 3, 7, 4, 5, 1, 8, 6} {
			q.pushLocked(s, s)
		}
		if got, want := take(q, tsInfinity, 16), []uint64{1, 2, 3, 4, 5, 6, 7, 8}; !slices.Equal(got, want) {
			t.Fatalf("took %v, want %v", got, want)
		}
	})

	t.Run("take bounds and first", func(t *testing.T) {
		q := newQueue()
		if q.first.Load() != tsInfinity || q.len() != 0 {
			t.Fatalf("empty queue: first %d, len %d", q.first.Load(), q.len())
		}
		for s := uint64(1); s <= 10; s++ {
			q.pushLocked(s, s)
		}
		for _, c := range []struct {
			h     uint64
			n     int
			want  []uint64
			first uint64
			left  int
		}{
			{5, 3, []uint64{1, 2, 3}, 4, 7}, // stopped by the buffer
			{5, 8, []uint64{4}, 5, 6},       // stopped by the horizon
			{5, 8, nil, 5, 6},               // nothing the horizon passed
			{11, 4, []uint64{5, 6, 7, 8}, 9, 2},
			{11, 4, []uint64{9, 10}, tsInfinity, 0}, // emptied
		} {
			got := take(q, c.h, c.n)
			if !slices.Equal(got, c.want) || q.first.Load() != c.first || q.len() != c.left {
				t.Fatalf("take(%d, %d) = %v, first %d, len %d; want %v, first %d, len %d",
					c.h, c.n, got, q.first.Load(), q.len(), c.want, c.first, c.left)
			}
		}
		q.pushLocked(3, 3)
		q.pushLocked(2, 2)
		if q.first.Load() != 2 {
			t.Fatalf("first %d after an overtaken push, want 2", q.first.Load())
		}
	})

	t.Run("front slots reused", func(t *testing.T) {
		q := newQueue()
		for s := uint64(1); len(q.items) < 4 || len(q.items) < cap(q.items); s++ {
			q.pushLocked(s, s)
		}
		n, c, arr := uint64(len(q.items)), cap(q.items), unsafe.SliceData(q.items)
		take(q, 3, 8) // two spent slots at the front
		q.pushLocked(n+2, n+2)
		q.pushLocked(n+1, n+1)
		if cap(q.items) != c || unsafe.SliceData(q.items) != arr {
			t.Fatalf("the array grew (cap %d → %d) while %d front slots were spent", c, cap(q.items), 2)
		}
		want := make([]uint64, 0, n)
		for s := uint64(3); s <= n+2; s++ {
			want = append(want, s)
		}
		if got := take(q, tsInfinity, int(n)+8); !slices.Equal(got, want) {
			t.Fatalf("after the reuse took %v, want %v", got, want)
		}
		q.pushLocked(1, 1)
		if unsafe.SliceData(q.items) != arr || q.head != 0 {
			t.Fatal("an emptied queue does not reuse its array from the front")
		}
	})

	t.Run("retirement queue keeps nothing reachable", func(t *testing.T) {
		checkQueueLetsGo(t, func(r *Txn) Retired { return Retired{Txn: r, Payload: r} })
	})
	t.Run("limbo keeps nothing reachable", func(t *testing.T) {
		checkQueueLetsGo(t, func(r *Txn) *Txn { return r })
	})
}

// checkQueueLetsGo queues records wrapped as E and checks with weak pointers
// that the records taken off are collectable while the queue keeps the
// rest, and that an emptied queue keeps none.
func checkQueueLetsGo[E any](t *testing.T, wrap func(*Txn) E) {
	const n = 64
	q := new(queue[E])
	q.first.Store(tsInfinity)
	recs := make([]weak.Pointer[Txn], n)
	for i := range recs {
		r := new(Txn)
		recs[i] = weak.Make(r)
		q.pushLocked(uint64(i+1), wrap(r))
	}
	out := make([]E, n)
	check := func(phase string, queued int) {
		t.Helper()
		clear(out)
		runtime.GC()
		runtime.GC()
		for i, r := range recs {
			if alive := r.Value() != nil; alive != (i >= n-queued) {
				t.Fatalf("%s: record %d reachable %v, want %v", phase, i, alive, i >= n-queued)
			}
		}
	}
	if got := q.takeLocked(n/2+1, out); got != n/2 {
		t.Fatalf("took %d, want %d", got, n/2)
	}
	check("half taken", n/2)
	if got := q.takeLocked(tsInfinity, out); got != n/2 {
		t.Fatalf("took %d, want %d", got, n/2)
	}
	check("emptied", 0)
	if cap(q.items) == 0 {
		t.Fatal("the emptied queue dropped its array")
	}
	runtime.KeepAlive(q)
}
