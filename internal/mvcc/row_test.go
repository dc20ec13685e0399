package mvcc

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"ssi/internal/core"
	"ssi/internal/raceflag"
)

// freeLists returns the total length of tb's free lists, failing the test if a
// partition's list is longer than the table's bound, its counter disagrees
// with the list, or a listed version is not zero apart from its link.
func freeLists(t *testing.T, tb *Table) int {
	t.Helper()
	total := 0
	for i, sh := range tb.shards {
		sh.mu.Lock()
		n := 0
		for v := sh.free; v != nil; v = v.older {
			if v.data != nil || v.size != 0 || v.reader != 0 || v.creator != nil {
				t.Errorf("partition %d: free version %d still holds %+v", i, n, *v)
			}
			n++
		}
		if int64(n) != sh.nfree || sh.nfree > freeMax {
			t.Errorf("partition %d: free list of %d, counted %d, bound %d", i, n, sh.nfree, freeMax)
		}
		sh.mu.Unlock()
		total += n
	}
	return total
}

// commitWrite writes key=val in a transaction of its own and commits it,
// handing the row to the retire hook as the engine does (see retireRows).
func commitWrite(t *testing.T, m *core.Manager, tb *Table, key, val []byte) (*core.Txn, core.TS) {
	t.Helper()
	w := m.Begin(core.SnapshotIsolation)
	m.AssignSnapshot(w)
	row, _ := tb.Write(w, key, val, false, nil)
	ct, err := m.CommitPrepare(w)
	if err != nil {
		t.Fatal(err)
	}
	m.FinishWith(w, false, []Row{row})
	return w, ct
}

// TestAbortedOverwritesLeaveNoDead: a rolled-back overwrite supersedes
// nothing, so it leaves nothing to prune — it once counted towards the vacuum
// trigger, and a workload that aborts a tenth of its overwrites scheduled
// sweeps that found nothing.
func TestAbortedOverwritesLeaveNoDead(t *testing.T) {
	f := newFixture()
	f.put(t, "x", "v1")
	for i := 0; i < 5000; i++ {
		w := f.m.Begin(core.SnapshotIsolation)
		f.m.AssignSnapshot(w)
		row, inserted := f.tb.Write(w, []byte("x"), []byte("lost"), false, nil)
		if inserted {
			t.Fatal("overwrite reported as an insert")
		}
		row.Rollback(w)
		f.m.Abort(w)
	}
	if st := f.tb.Vacuum(); st.VersionsPruned != 0 {
		t.Errorf("Vacuum pruned %d versions after 5000 aborted overwrites, want 0", st.VersionsPruned)
	}
	if n := f.chainLen("x"); n != 1 {
		t.Errorf("chain holds %d versions, want the committed one", n)
	}
	// Every undo recycled the version its write had copied the head out to.
	if n := freeLists(t, f.tb); n != 1 {
		t.Errorf("%d versions on the free lists, want the one each overwrite reused", n)
	}
}

// TestVersionRecycleAllocBudget: in the steady state a superseding write
// builds its copy of the old head from a version an earlier writer's
// retirement cut off some chain of the partition, so overwriting allocates
// (next to) nothing, and the free lists stay within their bound. Nothing here
// yields: retirement runs in the writer's own Finish, however the writer is
// scheduled.
func TestVersionRecycleAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const rows, perTxn = 1024, 256
	m := core.NewManager(core.DetectorPrecise)
	retireRows(m)
	tb := NewTable("t", Config{Shards: 4, Horizon: m.OldestActiveSnapshot})
	keys := make([][]byte, rows)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%05d", i))
	}
	val := []byte("v")
	next := 0
	written := make([]Row, 0, perTxn) // retired within its writer's Finish, so reused
	overwrite := func(writes int) {
		for done := 0; done < writes; done += perTxn {
			w := m.Begin(core.SnapshotIsolation)
			m.AssignSnapshot(w)
			written = written[:0]
			for i := 0; i < perTxn; i++ {
				row, _ := tb.Write(w, keys[next%rows], val, false, nil)
				written = append(written, row)
				next++
			}
			if _, err := m.CommitPrepare(w); err != nil {
				t.Fatal(err)
			}
			m.FinishWith(w, false, written)
			freeLists(t, tb)
		}
	}
	overwrite(rows + 20_000) // the load, then enough retirements to fill the lists
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const writes = 100_000
	overwrite(writes)
	runtime.ReadMemStats(&after)
	// What is left is the transactions' own records (a few per 256 writes).
	perWrite := float64(after.Mallocs-before.Mallocs) / writes
	t.Logf("%.4f allocations per overwrite, %d versions on the free lists", perWrite, freeLists(t, tb))
	if perWrite > 0.05 {
		t.Errorf("%.4f allocations per overwrite in the steady state, want ≤ 0.05", perWrite)
	}
	if tb.Stats().VersionsPruned < writes/2 {
		t.Errorf("only %d versions pruned over %d overwrites: the horizon did not advance", tb.Stats().VersionsPruned, writes)
	}
}

// TestRecycledVersionPinsNothing: a version on a free list is zero. The value
// it held and its creator's cell die with the sweep that cut it, although the
// Version object itself lives on.
func TestRecycledVersionPinsNothing(t *testing.T) {
	m := core.NewManager(core.DetectorPrecise)
	tb := NewTable("t", Config{Shards: 1, Horizon: m.OldestActiveSnapshot})
	key := []byte("x")
	old := make([]byte, 64)
	data := weak.Make(&old[0])
	w, _ := commitWrite(t, m, tb, key, old)
	cell := weak.Make(w.Cell())
	old, w = nil, nil
	commitWrite(t, m, tb, key, []byte("new"))
	runtime.GC()
	runtime.GC()
	if data.Value() == nil || cell.Value() == nil {
		t.Fatal("a superseded version no sweep has cut lost its data or its creator")
	}
	if st := tb.Vacuum(); st.VersionsPruned != 1 {
		t.Fatalf("sweep pruned %d versions, want 1", st.VersionsPruned)
	}
	runtime.GC()
	runtime.GC()
	if n := freeLists(t, tb); n != 1 {
		t.Fatalf("%d versions on the free list, want the pruned one", n)
	}
	if data.Value() != nil {
		t.Error("the recycled version's data is still reachable")
	}
	if cell.Value() != nil {
		t.Error("the recycled version's creator cell is still reachable")
	}
	runtime.KeepAlive(tb)
}

// recycleValue is what the writer of transaction id stores under key, so a
// reader can tell whose version it read, and a version whose data and creator
// do not belong together.
func recycleValue(key string, id uint64) []byte {
	return binary.BigEndian.AppendUint64([]byte(key), id)
}

// recycleWriter decodes recycleValue: the id of the writer whose value of key
// val is, and whether val is such a value at all.
func recycleWriter(key string, val []byte) (uint64, bool) {
	if len(val) != len(key)+8 || string(val[:len(key)]) != key {
		return 0, false
	}
	return binary.BigEndian.Uint64(val[len(key):]), true
}

// TestRecycledVersionNeverVisible: with every writer pruning what it
// superseded as soon as it retires, versions go round through the free lists
// as fast as they can, while readers
// hold snapshots of every age. Every read must return the version its snapshot
// selects — checked afterwards against the full commit history — with the data
// its creator wrote; and while one snapshot pins the horizon, every version it
// could need stays on its chain, so the writes allocate instead of recycling.
func TestRecycledVersionNeverVisible(t *testing.T) {
	const nkeys, writers, readers = 8, 4, 4
	perWriter := 4000
	if raceflag.Enabled {
		perWriter = 1000
	}
	m := core.NewManager(core.DetectorPrecise)
	retireRows(m)
	tb := NewTable("t", Config{Shards: 2, Horizon: m.OldestActiveSnapshot})
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("hot%d", i)
	}
	// history[k] is key k's committed versions in commit order; each key has
	// one writer, which appends after its commit.
	type committed struct {
		ct core.TS
		id uint64
	}
	var histMu sync.Mutex
	history := make([][]committed, nkeys)
	write := func(k int) {
		w := m.Begin(core.SnapshotIsolation)
		m.AssignSnapshot(w)
		row, _ := tb.Write(w, []byte(keys[k]), recycleValue(keys[k], w.ID()), false, nil)
		ct, err := m.CommitPrepare(w)
		if err != nil {
			t.Error(err)
		}
		m.FinishWith(w, false, []Row{row})
		histMu.Lock()
		history[k] = append(history[k], committed{ct, w.ID()})
		histMu.Unlock()
		// Writers and readers take turns operation by operation on
		// one processor too, where a goroutine would otherwise run for a whole
		// time slice against snapshots held by descheduled readers.
		runtime.Gosched()
	}
	for k := range keys {
		write(k)
	}

	// A reader identifies the version it read by its value, which names the
	// writer — a frozen version no longer names it through its creator. It
	// checks what it can at once — the value is a writer's of this key, an
	// unfrozen creator is the one the value names and committed before the
	// snapshot, and the version does not change while the snapshot is held —
	// and logs the rest for the end.
	type observation struct {
		k    int
		snap core.TS
		id   uint64
	}
	var obsMu sync.Mutex
	var observed []observation
	read := func(r *core.Txn, snap core.TS, k int, seen map[int]uint64) {
		defer runtime.Gosched()
		res := tb.Read(r, snap, []byte(keys[k]))
		if !res.Found {
			t.Errorf("snapshot %d finds no version of %s", snap, keys[k])
			return
		}
		id, ok := recycleWriter(keys[k], res.Value)
		if !ok {
			t.Errorf("snapshot %d reads %q of %s, no writer's value of it", snap, res.Value, keys[k])
			return
		}
		if c := res.VisibleCreator; c.ID() != core.FrozenID {
			if c.ID() != id {
				t.Errorf("snapshot %d reads %q of %s beside creator %d", snap, res.Value, keys[k], c.ID())
			}
			if ct := c.CommitTS(); ct == 0 || ct >= snap {
				t.Errorf("snapshot %d reads a version of %s committed at %d", snap, keys[k], ct)
			}
		}
		if prev, ok := seen[k]; ok && prev != id {
			t.Errorf("snapshot %d read the version of %s written by %d, now the one by %d", snap, keys[k], prev, id)
		}
		if _, ok := seen[k]; !ok {
			seen[k] = id
			obsMu.Lock()
			observed = append(observed, observation{k, snap, id})
			obsMu.Unlock()
		}
	}

	// run overwrites every key perWriter times over, readers holding snapshots
	// of staggered ages beside the writers, and one more re-reading the oldest
	// snapshot around, if there is one.
	run := func(pinned *core.Txn, pinnedSnap core.TS, pinnedSeen map[int]uint64) {
		var stop atomic.Bool
		var wg, rg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					write(w*nkeys/writers + i%(nkeys/writers))
				}
			}()
		}
		for g := 0; g < readers; g++ {
			rg.Add(1)
			go func() {
				defer rg.Done()
				rnd := rand.New(rand.NewSource(int64(g)))
				for !stop.Load() {
					// Reader g holds each of its snapshots for 4^g reads.
					r := m.Begin(core.SnapshotIsolation)
					snap := m.AssignSnapshot(r)
					seen := map[int]uint64{}
					for i := 0; i < 1<<(2*g) && !stop.Load(); i++ {
						read(r, snap, rnd.Intn(nkeys), seen)
					}
					m.Abort(r)
				}
			}()
		}
		if pinned != nil {
			rg.Add(1)
			go func() {
				defer rg.Done()
				for k := 0; !stop.Load(); k = (k + 1) % nkeys {
					read(pinned, pinnedSnap, k, pinnedSeen)
				}
			}()
		}
		wg.Wait()
		stop.Store(true)
		rg.Wait()
	}
	chained := func() (total int) {
		for k := range keys {
			total += f2chainLen(t, tb, keys[k])
		}
		return total
	}

	// With no snapshot older than the readers' own, the horizon follows the
	// writers and versions are cut, recycled and reused all the time.
	pruned := tb.Stats().VersionsPruned
	run(nil, 0, nil)
	t.Logf("%d versions pruned beside %d overwrites", tb.Stats().VersionsPruned-pruned, writers*perWriter)
	if got := tb.Stats().VersionsPruned - pruned; got < uint64(writers*perWriter/2) {
		t.Errorf("%d versions pruned beside %d overwrites: the readers saw little recycling", got, writers*perWriter)
	}

	// A snapshot held across the next run — thousands of overwrites of every
	// key — pins the horizon: nothing written since can be cut, so every
	// overwrite is still on its chain afterwards and the free lists got
	// nothing beyond what they held at the start.
	pinned := m.Begin(core.SnapshotIsolation)
	pinnedSnap := m.AssignSnapshot(pinned)
	pinnedSeen := map[int]uint64{}
	tb.Vacuum()
	base, recycled := chained(), freeLists(t, tb)
	run(pinned, pinnedSnap, pinnedSeen)
	tb.Vacuum()
	if got, want := chained(), base+writers*perWriter; got != want {
		t.Errorf("chains hold %d versions under a pinned horizon, want all %d", got, want)
	}
	if n := freeLists(t, tb); n > recycled {
		t.Errorf("%d versions on the free lists under a pinned horizon, %d before it", n, recycled)
	}
	if len(pinnedSeen) != nkeys {
		t.Errorf("the pinned snapshot read %d of %d keys", len(pinnedSeen), nkeys)
	}

	// Every logged read was the newest version committed before its snapshot,
	// its writer's commit looked up in the history.
	for _, o := range observed {
		var got, want core.TS
		for _, c := range history[o.k] {
			if c.id == o.id {
				got = c.ct
			}
			if c.ct < o.snap {
				want = c.ct
			}
		}
		if got == 0 || got != want {
			t.Errorf("snapshot %d read the version of %s committed at %d (by %d), its snapshot selects the one at %d", o.snap, keys[o.k], got, o.id, want)
		}
	}

	// The pinned snapshot's end retires the writers behind it, which cut the
	// backlog and recycle it; the next writes take it from there.
	pruned = tb.Stats().VersionsPruned
	m.Abort(pinned)
	if tb.Stats().VersionsPruned == pruned {
		t.Error("nothing pruned once the pinned snapshot was gone")
	}
	if n := freeLists(t, tb); n == 0 {
		t.Error("nothing recycled once the pinned snapshot was gone")
	}
}

// TestRowHandleAcrossSplits: a Row stays the address of its row through every
// kind of page split around it, under concurrent scans: reading, writing,
// undoing and the First-Committer-Wins probe through a handle taken before the
// splits answer what the by-key operations answer after them.
func TestRowHandleAcrossSplits(t *testing.T) {
	const n = 10_000
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }
	ascending := make([]int, n)
	for i := range ascending {
		ascending[i] = i
	}
	descending := slices.Clone(ascending)
	slices.Reverse(descending)
	orders := map[string][]int{
		"ascending":  ascending,
		"descending": descending,
		"shuffled":   rand.New(rand.NewSource(1)).Perm(n),
	}
	for name, order := range orders {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				m := core.NewManager(core.DetectorPrecise)
				tb := NewTable("t", Config{PageMaxKeys: 4, Shards: shards, Horizon: m.OldestActiveSnapshot})
				// The rows the handles name go in first, spread over the key
				// space: the first and last keys and some in between.
				held := []int{0, 1, n / 3, n / 2, n - 2, n - 1}
				rows := make([]Row, len(held))
				cts := make([]core.TS, len(held))
				isHeld := map[int]bool{}
				for i, h := range held {
					_, cts[i] = commitWrite(t, m, tb, key(h), key(h))
					isHeld[h] = true
					var ok bool
					if rows[i], ok = tb.Locate(key(h)); !ok {
						t.Fatalf("no row for %s straight after its insert", key(h))
					}
				}
				pages := tb.PageCount()

				var stop atomic.Bool
				var wg sync.WaitGroup
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for !stop.Load() {
							r := m.Begin(core.SnapshotIsolation)
							snap := m.AssignSnapshot(r)
							prev := ""
							tb.Scan(r, snap, nil, func(it ScanItem) bool {
								if it.Key <= prev {
									t.Errorf("scan out of order: %q after %q", it.Key, prev)
								}
								prev = it.Key
								return true
							})
							m.Abort(r)
						}
					}()
				}
				for _, i := range order {
					if !isHeld[i] {
						commitWrite(t, m, tb, key(i), key(i))
					}
				}
				stop.Store(true)
				wg.Wait()
				if tb.Len() != n || tb.PageCount() < pages+n/8 {
					t.Fatalf("%d keys on %d pages (%d before): the load did not split around the held rows", tb.Len(), tb.PageCount(), pages)
				}

				r := m.Begin(core.SnapshotIsolation)
				snap := m.AssignSnapshot(r)
				defer m.Abort(r)
				for i, row := range rows {
					k := key(held[i])
					again, ok := tb.Locate(k)
					if !ok || again != row {
						t.Errorf("%s: Locate after the splits returns %+v, the handle from before them is %+v", k, again, row)
					}
					if row.Key() != string(k) {
						t.Errorf("handle of %s names %q", k, row.Key())
					}
					if got, want := row.Read(r, snap), tb.Read(r, snap, k); !got.Found || string(got.Value) != string(k) || got.VisibleCreator != want.VisibleCreator {
						t.Errorf("%s: read through the handle %q (found %v), by key %q", k, got.Value, got.Found, want.Value)
					}
					if got := newestCommit(row, r); got != cts[i] {
						t.Errorf("%s: newest commit through the handle %d, committed at %d", k, got, cts[i])
					}

					// A write through the handle is the write the by-key read sees;
					// undone through the handle, it is gone by key as well.
					w := m.Begin(core.SnapshotIsolation)
					wsnap := m.AssignSnapshot(w)
					tb.Claim(w, k, row, Intent{Data: []byte("pending")}, noLocks{})
					if got := tb.Read(w, wsnap, k); string(got.Value) != "pending" {
						t.Errorf("%s: by-key read of the writer sees %q after a write through the handle", k, got.Value)
					}
					if got := tb.Read(r, snap, k); string(got.Value) != string(k) || len(got.NewerWriters) != 1 {
						t.Errorf("%s: by-key snapshot read beside the pending write: %q, %d newer writers", k, got.Value, len(got.NewerWriters))
					}
					row.Rollback(w)
					m.Abort(w)
					if got := tb.Read(r, snap, k); string(got.Value) != string(k) || len(got.NewerWriters) != 0 {
						t.Errorf("%s: by-key read after the undo through the handle: %q, %d newer writers", k, got.Value, len(got.NewerWriters))
					}

					// And a committed one moves the First-Committer-Wins stamp by
					// key's row, whichever way it is asked.
					w = m.Begin(core.SnapshotIsolation)
					m.AssignSnapshot(w)
					tb.Claim(w, k, row, Intent{Data: []byte("v2")}, noLocks{})
					ct, err := m.CommitPrepare(w)
					if err != nil {
						t.Fatal(err)
					}
					m.Finish(w, false)
					if got := newestCommit(again, r); got != ct || newestCommit(row, r) != ct {
						t.Errorf("%s: newest commit %d after a commit at %d through the handle", k, got, ct)
					}
				}
			})
		}
	}
}

// TestOnlyInsertsSpendKeyBytes: a key reaches a tree's arena only through a
// structural insert. An empty table holds no arena bytes; reading or
// locating a key without a row, reading at the latest timestamp as a locking
// read does, a claim of the key whose gap probe blocks, overwriting a row and
// rolling a write back spend none; an insert spends its key's length and
// bytes, once — a key stays in its tree after its inserting write rolls back,
// so writing it again spends nothing either.
func TestOnlyInsertsSpendKeyBytes(t *testing.T) {
	f := newFixture()
	keyBytes := func() int { return f.tb.Stats().KeyBytes }
	if n := keyBytes(); n != 0 {
		t.Fatalf("an empty table's arenas hold %d bytes", n)
	}
	f.put(t, "present", "v")
	base := keyBytes()
	if base != 1+len("present") {
		t.Fatalf("one insert of a 7-byte key spent %d arena bytes, want 8", base)
	}
	r := f.m.Begin(core.SerializableSI)
	snap := f.m.AssignSnapshot(r)
	for i := range 100 {
		k := fmt.Appendf(nil, "absent-%d", i)
		if _, ok := f.tb.Locate(k); ok {
			t.Fatalf("Locate(%s) found a row", k)
		}
		if res := f.tb.Read(r, snap, k); res.Found {
			t.Fatalf("Read(%s) found a value", k)
		}
		if res := f.tb.Read(r, core.TS(^uint64(0)), k); res.Found {
			t.Fatalf("a locking read of %s found a value", k)
		}
		if c := f.tb.Claim(r, k, Row{}, Intent{Data: []byte("x")}, &heldRows{gapBlocked: true}); c.Outcome != Blocked || !c.Row.IsZero() {
			t.Fatalf("a claim of %s whose gap probe blocks: %v, row %q", k, c.Outcome, c.Row.Key())
		}
	}
	f.m.Abort(r)
	if n := keyBytes(); n != base {
		t.Fatalf("reads of absent keys spent %d arena bytes", n-base)
	}
	f.put(t, "present", "w") // an overwrite
	w := f.m.Begin(core.SnapshotIsolation)
	f.m.AssignSnapshot(w)
	row, inserted := f.tb.Write(w, []byte("rolled-back"), []byte("x"), false, nil)
	if !inserted {
		t.Fatal("the write of an absent key did not insert")
	}
	row.Rollback(w)
	f.m.Abort(w)
	if n, want := keyBytes(), base+1+len("rolled-back"); n != want {
		t.Fatalf("an overwrite and a rolled-back insert left %d arena bytes, want %d", n, want)
	}
	f.put(t, "rolled-back", "y")
	if n, want := keyBytes(), base+1+len("rolled-back"); n != want {
		t.Fatalf("rewriting a key the tree kept spent %d more arena bytes", n-want)
	}
}

// heldRows is a Locker that holds the rows of the transactions in held and
// blocks every row probe while blocked is set, and every gap probe while
// gapBlocked is; it records what it was told. own is the writer's reader
// slot, whose registration its writes drop.
type heldRows struct {
	held       map[*core.Txn]bool
	blocked    bool
	gapBlocked bool
	probes     int
	gaps       []string // the successors of the gaps probed, "" for past the last key
	inserted   []string
	own        uint32
	readers    []uint32
}

func (l *heldRows) Holds(w *core.Txn) bool { return l.held[w] }
func (l *heldRows) Probe(string, string) bool {
	l.probes++
	return l.blocked
}
func (l *heldRows) ProbeGap(_, succ string, _ bool) bool {
	l.gaps = append(l.gaps, succ)
	return l.gapBlocked
}
func (l *heldRows) Inherit(_, stored, _ string, _ bool) { l.inserted = append(l.inserted, stored) }
func (l *heldRows) Reader(slot uint32) bool {
	if slot == l.own {
		return true
	}
	l.readers = append(l.readers, slot)
	return false
}

// TestClaimDecides: a claim decides on the row's head alone, in one latch
// hold, in order — the writer's own head is overwritten in place; a head
// whose writer still holds the row is Held, with nothing probed; a head
// committed after the snapshot is a Conflict, but only once the probe has run
// (it finds the readers to mark); a blocking lock is Blocked; a visible live
// head refuses MustNotExist; otherwise the version is pushed. A key the caller
// saw absent has the gap before its successor probed first: a blocked gap
// inserts nothing; otherwise the key is inserted, and the Locker told, even
// when the row's probe then blocks and nothing is installed. A key that is in
// the index by then has no gap probed.
func TestClaimDecides(t *testing.T) {
	f := newFixture()
	ct := f.put(t, "x", "v0")
	l := &heldRows{held: map[*core.Txn]bool{}}
	claim := func(w *core.Txn, key string, in Intent) Claim {
		row, _ := f.tb.Locate([]byte(key))
		return f.tb.Claim(w, []byte(key), row, in, l)
	}
	read := func(key string) string {
		r := f.m.Begin(core.SnapshotIsolation)
		defer f.m.Abort(r)
		return string(f.tb.Read(r, f.m.AssignSnapshot(r), []byte(key)).Value)
	}

	// A snapshot before ct: First-Committer-Wins, after the probe.
	old := f.m.Begin(core.SnapshotIsolation)
	if c := claim(old, "x", Intent{Snap: ct - 1, Data: []byte("late")}); c.Outcome != Conflict || l.probes != 1 {
		t.Fatalf("a claim over a head committed after its snapshot: %v after %d probes, want Conflict after 1", c.Outcome, l.probes)
	}
	f.m.Abort(old)

	w := f.m.Begin(core.SnapshotIsolation)
	if c := claim(w, "x", Intent{Snap: ct + 1, Data: []byte("a"), MustNotExist: true}); c.Outcome != Exists {
		t.Fatalf("MustNotExist over a live committed head: %v, want Exists", c.Outcome)
	}
	l.blocked = true
	if c := claim(w, "x", Intent{Snap: ct + 1, Data: []byte("a")}); c.Outcome != Blocked {
		t.Fatalf("a claim whose probe is blocked: %v, want Blocked", c.Outcome)
	}
	l.blocked = false
	if c := claim(w, "x", Intent{Data: []byte("a")}); c.Outcome != Written {
		t.Fatalf("a free claim: %v, want Written", c.Outcome)
	}
	l.held[w] = true
	probes := l.probes
	if c := claim(w, "x", Intent{Data: []byte("a2")}); c.Outcome != Written || l.probes != probes {
		t.Fatalf("a claim over the writer's own head: %v after %d more probes, want Written after none", c.Outcome, l.probes-probes)
	}
	other := f.m.Begin(core.SnapshotIsolation)
	if c := claim(other, "x", Intent{Data: []byte("b")}); c.Outcome != Held || c.Holder != w || l.probes != probes {
		t.Fatalf("a claim over a held head: %v (holder %v) after %d more probes, want Held by the writer after none", c.Outcome, c.Holder, l.probes-probes)
	}
	f.commit(t, w)
	if got := read("x"); got != "a2" {
		t.Fatalf("the row reads %q, want the overwritten a2", got)
	}
	delete(l.held, w) // the writer let go of its locks

	l.gapBlocked = true
	probes = l.probes
	if c := claim(other, "new", Intent{Data: []byte("n")}); c.Outcome != Blocked || !c.Row.IsZero() || len(l.inserted) != 0 || l.probes != probes {
		t.Fatalf("a claim of an absent key whose gap probe blocks: %v, row %q, told %q, %d row probes", c.Outcome, c.Row.Key(), l.inserted, l.probes-probes)
	}
	if _, ok := f.tb.Locate([]byte("new")); ok || len(l.gaps) != 1 || l.gaps[0] != "x" {
		t.Fatalf("a blocked gap probe: key inserted %v, gaps probed before %q, want none and x", ok, l.gaps)
	}
	l.gapBlocked, l.blocked = false, true
	if c := claim(other, "new", Intent{Data: []byte("n")}); c.Outcome != Blocked || c.Row.Key() != "new" || len(l.inserted) != 1 || l.inserted[0] != "new" {
		t.Fatalf("an insert whose row probe blocks: %v, row %q, told %q", c.Outcome, c.Row.Key(), l.inserted)
	}
	l.blocked = false
	if c := claim(other, "new", Intent{Data: []byte("n")}); c.Outcome != Written || len(l.inserted) != 1 || len(l.gaps) != 2 {
		t.Fatalf("a claim of the key the blocked claim inserted: %v, told %q, gaps probed before %q", c.Outcome, l.inserted, l.gaps)
	}
	f.commit(t, other)
	if got := read("new"); got != "n" {
		t.Fatalf("the inserted row reads %q, want n", got)
	}
}
