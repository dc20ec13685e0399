package ssidb

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssi/internal/lock"
)

// The tests here drive the reader word (locks_row.go's read; mvcc's
// Table.ReadAs): an SSI point read of an existing row registers as the row's
// reader in the latch hold that reads it, and writers find it there, while
// the lock table keeps the reads that find the word taken.

// wordDB opens a database of the committed rows k0 … k<n-1>.
func wordDB(t *testing.T, opts Options, n int) *DB {
	t.Helper()
	db := Open(opts)
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
		for i := 0; i < n; i++ {
			if err := tx.Put("t", wordKey(i), []byte("v0")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func wordKey(i int) []byte { return []byte(fmt.Sprintf("k%d", i)) }

// get reads key in tx and fails the test on an error.
func get(t *testing.T, tx *Txn, key []byte) {
	t.Helper()
	if _, _, err := tx.Get("t", key); err != nil {
		t.Fatal(err)
	}
}

// spin busy-waits n steps, a delay too short for a sleep.
//
//go:noinline
func spin(n int) (sum int) {
	for i := 0; i < n; i++ {
		sum += i
	}
	return sum
}

// lockedKeys is how many keys the lock table holds.
func lockedKeys(db *DB) int { return db.StatsSnapshot().LockedKeys }

// TestWordReaderFoundByWriter (a): a Get of an existing row at SSI takes no
// lock-table entry — its SIREAD is the row's word — and a writer at every
// level finds the reader there in its claim: an SSI writer marks the
// rw-antidependency, and SI and S2PL writers, which record none, find the
// reader among the rivals the claim collected. Then the read and the write
// run on goroutines of their own, ordered by nothing but the row's latch, one
// of them a moment after the other: the reader either reads the writer's
// version as newer or is found in the word. (Run under -race: a
// registration made after the latch is released is a data race with the
// claim that reads the word.)
func TestWordReaderFoundByWriter(t *testing.T) {
	for _, iso := range []Isolation{SnapshotIsolation, SerializableSI, S2PL} {
		t.Run(iso.String(), func(t *testing.T) {
			db := wordDB(t, Options{Detector: DetectorPrecise}, 1)
			r := db.Begin(SerializableSI)
			get(t, r, wordKey(0))
			if n := lockedKeys(db); n != 0 || len(r.reads) != 1 {
				t.Fatalf("the read left %d lock-table keys and %d registered rows, want 0 and 1", n, len(r.reads))
			}
			w := db.Begin(iso)
			if err := w.Put("t", wordKey(0), []byte("w")); err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(w.rivals, r.t) {
				t.Errorf("the claim's rivals %v miss the word's reader %d", w.rivals, r.t.ID())
			}
			if marked := db.mgr.HasOutConflict(r.t); marked != (iso == SerializableSI) {
				t.Errorf("reader marked %v by a %v writer", marked, iso)
			}
			r.Abort()
			w.Abort()
		})
	}
	t.Run("apart", func(t *testing.T) {
		const runs = 20
		db := wordDB(t, Options{Detector: DetectorPrecise}, runs)
		for i := 0; i < runs; i++ {
			r, w := db.Begin(SerializableSI), db.Begin(SerializableSI)
			readFirst := i%2 == 0
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				if !readFirst {
					time.Sleep(time.Millisecond)
				}
				if _, _, err := r.Get("t", wordKey(i)); err != nil {
					t.Error(err)
				}
			}()
			go func() {
				defer wg.Done()
				if readFirst {
					time.Sleep(time.Millisecond)
				}
				if err := w.Put("t", wordKey(i), []byte("w")); err != nil {
					t.Error(err)
				}
			}()
			wg.Wait()
			if !db.mgr.HasOutConflict(r.t) {
				t.Fatalf("run %d (read first %v): neither the read nor the write saw the other", i, readFirst)
			}
			r.Abort()
			w.Abort()
		}
	})
}

// TestWordOverflow (b): a second reader of a row whose word names the first
// takes its SIREAD in the lock table, and a writer finds both — the one in
// the word, the other by its probe. Then the second reader and the writer
// race, many times, on a lock table of one shard that other readers keep
// busy, so the second reader's grant and the writer's probe often queue for
// the same mutex: the overflow read locks before it reads, so it misses no
// writer that probed before its entry existed.
func TestWordOverflow(t *testing.T) {
	db := wordDB(t, Options{Detector: DetectorPrecise}, 1)
	r1, r2 := db.Begin(SerializableSI), db.Begin(SerializableSI)
	get(t, r1, wordKey(0))
	get(t, r2, wordKey(0))
	if n := lockedKeys(db); n != 1 || len(r2.reads) != 0 {
		t.Fatalf("the second read left %d lock-table keys and %d registered rows, want 1 and 0", n, len(r2.reads))
	}
	w := db.Begin(SerializableSI)
	if err := w.Put("t", wordKey(0), []byte("w")); err != nil {
		t.Fatal(err)
	}
	if !db.mgr.HasOutConflict(r1.t) || !db.mgr.HasOutConflict(r2.t) {
		t.Errorf("the writer marked the word's reader %v, the table's %v; want both", db.mgr.HasOutConflict(r1.t), db.mgr.HasOutConflict(r2.t))
	}
	for _, tx := range []*Txn{r1, r2, w} {
		tx.Abort()
	}

	if runtime.GOMAXPROCS(0) < 2 {
		return // one goroutine at a time: nothing races
	}
	const runs = 4000
	db = wordDB(t, Options{Detector: DetectorPrecise}, runs)
	for i := 0; i < runs; i++ {
		r1, r2, w := db.Begin(SerializableSI), db.Begin(SerializableSI), db.Begin(SerializableSI)
		get(t, r1, wordKey(i))
		var ready, start atomic.Bool
		done := make(chan error, 1)
		go func() {
			ready.Store(true)
			for !start.Load() {
			}
			spin(i % 50 * 8) // the writer's claim lands across the reader's path
			done <- w.Put("t", wordKey(i), []byte("w"))
		}()
		for !ready.Load() {
			runtime.Gosched()
		}
		start.Store(true)
		get(t, r2, wordKey(i))
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !db.mgr.HasOutConflict(r2.t) {
			t.Fatalf("run %d: the overflow read and the write missed each other", i)
		}
		for _, tx := range []*Txn{r1, r2, w} {
			tx.Abort()
		}
	}
}

// TestWordClearedAtEnd (c): a reader's end — its retirement after a commit,
// or its abort — clears the words it set before its slot is free, so the
// slot's next owner, which takes the same slot, is never marked by a writer
// of the first reader's row, and the row's next reader registers in the word.
func TestWordClearedAtEnd(t *testing.T) {
	for _, end := range []string{"commit", "abort"} {
		t.Run(end, func(t *testing.T) {
			db := wordDB(t, Options{Detector: DetectorPrecise}, 2)
			r := db.Begin(SerializableSI)
			get(t, r, wordKey(0))
			slot := r.slot
			if end == "commit" {
				if err := r.Commit(); err != nil { // retires at once on a quiet database
					t.Fatal(err)
				}
			} else {
				r.Abort()
			}
			next := db.Begin(SerializableSI)
			get(t, next, wordKey(1))
			if next.slot != slot {
				t.Fatalf("the next reader took slot %d, not the freed %d", next.slot, slot)
			}
			w := db.Begin(SerializableSI)
			if err := w.Put("t", wordKey(0), []byte("w")); err != nil {
				t.Fatal(err)
			}
			if db.mgr.HasOutConflict(next.t) {
				t.Error("a writer of the ended reader's row marked its slot's next owner")
			}
			w.Abort()
			again := db.Begin(SerializableSI)
			get(t, again, wordKey(0))
			if n := lockedKeys(db); len(again.reads) != 1 || n != 0 {
				t.Errorf("the row's next reader registered %d rows and left %d lock-table keys; want its word clear", len(again.reads), n)
			}
			again.Abort()
			next.Abort()
		})
	}
}

// TestWordDroppedByOwnWrite (d): a transaction's write of a row it read drops
// its registration there (§3.7.3), so the row's next reader takes the word
// and the lock table stays empty. The subtest keeps the name it had when the
// upgrade could be turned off; the upgrade is now always on.
func TestWordDroppedByOwnWrite(t *testing.T) {
	t.Run("DisableSIReadUpgrade=false", func(t *testing.T) {
		db := wordDB(t, Options{Detector: DetectorPrecise}, 1)
		rw := db.Begin(SerializableSI)
		get(t, rw, wordKey(0))
		if err := rw.Put("t", wordKey(0), []byte("w")); err != nil {
			t.Fatal(err)
		}
		next := db.Begin(SerializableSI)
		get(t, next, wordKey(0))
		if len(next.reads) != 1 {
			t.Error("the next reader did not register: the write kept the writer's own word")
		}
		if n := lockedKeys(db); n != 0 {
			t.Errorf("%d lock-table keys after the next read, want 0", n)
		}
		next.Abort()
		rw.Abort()
	})
}

// TestWordMeetsExplicitGrant (e): an explicit Exclusive grant on a row is not
// a write. A GetForUpdate after a word reader marks nothing and leaves the
// word alone, and so does an Insert refused on the row, which takes no lock
// there at all; each reads the row, in the word if it is free and in the lock
// table if not, and a read after the grant, in the table, marks nothing
// either. And that read stays until the grantee ends: a writer of the row
// after the grantee has committed finds it in the word, and marks it.
func TestWordMeetsExplicitGrant(t *testing.T) {
	forUpdate := func(tx *Txn) error { _, _, err := tx.GetForUpdate("t", wordKey(0)); return err }
	refused := func(tx *Txn) error {
		if err := tx.Insert("t", wordKey(0), []byte("i")); !errors.Is(err, ErrKeyExists) {
			return fmt.Errorf("Insert of a live row returned %v, want ErrKeyExists", err)
		}
		return nil
	}
	rowKey := rowKeyOf(&table{name: "t"}, string(wordKey(0)))
	for _, c := range []struct {
		name        string
		grant       func(*Txn) error
		readerFirst bool
		locks       bool // the grantee then holds the row Exclusive
	}{
		{"GetForUpdate after the reader", forUpdate, true, true},
		{"GetForUpdate before the reader", forUpdate, false, true},
		{"refused Insert after the reader", refused, true, false},
		{"refused Insert before the reader", refused, false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := wordDB(t, Options{Detector: DetectorPrecise}, 1)
			r, g := db.Begin(SerializableSI), db.Begin(SerializableSI)
			read, grant := func() { get(t, r, wordKey(0)) }, func() {
				if err := c.grant(g); err != nil {
					t.Fatal(err)
				}
			}
			first, second := g, r
			if c.readerFirst {
				read()
				grant()
				first, second = r, g
			} else {
				grant()
				read()
			}
			if len(first.reads) != 1 || len(second.reads) != 0 || !db.locks.HoldsSIRead(second.t) {
				t.Errorf("the first read registered %d rows, the second %d and holds an SIREAD in the table %v; want the word, then the table", len(first.reads), len(second.reads), db.locks.HoldsSIRead(second.t))
			}
			// Neither order marks reader → grantee: the grant writes nothing,
			// and a read marks no lock holder at row granularity.
			if db.mgr.HasOutConflict(r.t) || db.mgr.HasInConflict(g.t) {
				t.Errorf("reader → grantee marked: reader.out %v, grantee.in %v", db.mgr.HasOutConflict(r.t), db.mgr.HasInConflict(g.t))
			}
			if held := db.locks.Holds(g.t, rowKey, lock.Exclusive); held != c.locks {
				t.Errorf("the grantee holds the row Exclusive: %v", held)
			}
			r.Abort()
			g.Abort()
		})
	}
	for _, c := range []struct {
		name  string
		grant func(*Txn) error
	}{
		{"GetForUpdate keeps its read", forUpdate},
		{"refused Insert keeps its read", refused},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := wordDB(t, Options{Detector: DetectorPrecise}, 2)
			g, w := db.Begin(SerializableSI), db.Begin(SerializableSI)
			get(t, w, wordKey(1)) // the writer's snapshot precedes the grantee's commit
			if err := c.grant(g); err != nil {
				t.Fatal(err)
			}
			gt := g.t
			if err := g.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := w.Put("t", wordKey(0), []byte("w")); err != nil {
				t.Fatal(err)
			}
			if !db.mgr.HasOutConflict(gt) || !db.mgr.HasInConflict(w.t) {
				t.Errorf("grantee → writer not marked: grantee.out %v, writer.in %v", db.mgr.HasOutConflict(gt), db.mgr.HasInConflict(w.t))
			}
			w.Abort()
		})
	}
}

// TestWaitedWriterDropsTableRead (f): a writer whose read of a row went to the
// lock table, the word being taken, and which then waited for the row, holds
// the row's Exclusive lock beside that SIREAD when its claim probes again. The
// probe drops the SIREAD all the same: the version the claim installs takes
// over the read (§3.7.3), so once committed the writer holds no SIREAD there.
// SmallBank's hot rows take this path.
func TestWaitedWriterDropsTableRead(t *testing.T) {
	db := wordDB(t, Options{Detector: DetectorPrecise}, 1)
	r, w, h := db.Begin(SerializableSI), db.Begin(SerializableSI), db.Begin(S2PL)
	get(t, r, wordKey(0))
	get(t, w, wordKey(0))
	if len(w.reads) != 0 || !db.locks.HoldsSIRead(w.t) {
		t.Fatalf("the second read registered %d rows, holds an SIREAD in the table %v; want it in the table", len(w.reads), db.locks.HoldsSIRead(w.t))
	}
	get(t, h, wordKey(0)) // a Shared lock the write waits for
	wt, parks := w.t, db.StatsSnapshot().LockParks
	put := async(func() error {
		if err := w.Put("t", wordKey(0), []byte("w")); err != nil {
			return err
		}
		return w.Commit()
	})
	awaitParks(t, db, parks)
	if err := h.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := result(t, put); err != nil {
		t.Fatal(err)
	}
	if db.locks.HoldsSIRead(wt) {
		t.Error("the committed writer still holds an SIREAD on the row it waited for and wrote")
	}
	r.Abort()
}
