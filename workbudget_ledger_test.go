//go:build workcount

package ssi_test

import (
	"fmt"
	"strings"
	"testing"

	"ssi/internal/btree"
	"ssi/internal/core"
	"ssi/internal/lock"
	"ssi/internal/mvcc"
	"ssi/internal/workload/kvmix"
	"ssi/ssidb"
)

// ledger is one row of TestSSIOverSIWorkBudget: the work of one transaction
// (of the two, for the rw pair), column by column as ledgerColumns names
// them.
type ledger [14]uint64

var ledgerColumns = [...]string{
	"lock req", "probes", "shard", "owner", "hashes",
	"latch sh", "latch ex", "versions", "words set", "words cleared", "descents",
	"marks", "queued", "drained",
}

func readLedger() ledger {
	l, s, b, c := lock.ReadWork(), mvcc.ReadWork(), btree.ReadWork(), core.ReadWork()
	return ledger{
		l.Acquires, l.Probes, l.ShardLocks, l.OwnerLocks, l.KeyHashes,
		s.SharedLatches, s.ExclusiveLatches, s.VersionsWalked, s.Registrations, s.Clears, b.Descents,
		c.Marks, c.Queued, c.Drained,
	}
}

// scanPuts returns a transaction at iso of a 64-row Scan and one Put of a
// row outside the scanned range, on a kvmix load.
func scanPuts(t *testing.T, db *ssidb.DB, iso ssidb.Isolation) func() {
	from, to := kvmix.Key(0x1000), kvmix.Key(0x1000+64)
	val := []byte("w")
	next := 0
	return func() {
		next++
		if err := db.Run(iso, func(tx *ssidb.Txn) error {
			if err := tx.Scan(kvmix.Table, from, to, func(k, v []byte) bool { return true }); err != nil {
				return err
			}
			return tx.Put(kvmix.Table, kvmix.Key(next%2048*2), val) // below the range
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// deletesAt returns transactions at iso that each delete one existing row of
// a kvmix load, a fresh one each call: the odd keys above first, which no
// other shape of the ledger touches above the scanned range.
func deletesAt(t *testing.T, db *ssidb.DB, iso ssidb.Isolation, first int) func() {
	next := first
	return func() {
		next += 2
		if err := db.Run(iso, func(tx *ssidb.Txn) error { return tx.Delete(kvmix.Table, kvmix.Key(next)) }); err != nil {
			t.Fatal(err)
		}
	}
}

// antiDependency returns two transactions at iso that form one
// rw-antidependency on a kvmix load: r reads row x; w writes x and commits;
// r then writes row y and commits.
func antiDependency(t *testing.T, db *ssidb.DB, iso ssidb.Isolation) func() {
	val := []byte("w")
	next := 0
	return func() {
		next++
		x, y := kvmix.Key(next%2048*2), kvmix.Key(next%2048*2+1)
		r := db.Begin(iso)
		if _, _, err := r.Get(kvmix.Table, x); err != nil {
			t.Fatal(err)
		}
		if err := db.Run(iso, func(w *ssidb.Txn) error { return w.Put(kvmix.Table, x, val) }); err != nil {
			t.Fatal(err)
		}
		if err := r.Put(kvmix.Table, y, val); err != nil {
			t.Fatal(err)
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// collision returns three transactions at iso on a kvmix load around one
// row x that two readers read: w reads row y, which gives it its snapshot;
// r1 and then r2 read x and commit; w writes x and commits.
func collision(t *testing.T, db *ssidb.DB, iso ssidb.Isolation) func() {
	val := []byte("w")
	next := 0
	return func() {
		next++
		x, y := kvmix.Key(next%2048*2), kvmix.Key(next%2048*2+1)
		w, r1, r2 := db.Begin(iso), db.Begin(iso), db.Begin(iso)
		for _, read := range []struct {
			tx  *ssidb.Txn
			key []byte
		}{{w, y}, {r1, x}, {r2, x}} {
			if _, _, err := read.tx.Get(kvmix.Table, read.key); err != nil {
				t.Fatal(err)
			}
		}
		if err := r1.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := r2.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := w.Put(kvmix.Table, x, val); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSSIOverSIWorkBudget is the ledger of what SerializableSI costs over
// SnapshotIsolation, with S2PL beside them: the same shapes at each level,
// every counter of the workcount build, per transaction and exact — lock
// requests, probes, shard- and owner-mutex holds and key hashes (package
// lock); shared and exclusive partition-latch holds and versions walked
// (package mvcc); B+tree descents; MarkConflict calls and retirement entries
// queued and drained (package core). Tables have one partition and the lock
// table 8 shards, except for the absent-key Put, whose gap and row keys share
// the one shard of its own database's lock table wherever they hash.
//
//	go test -tags workcount -run SSIOverSI -v .
//
// prints the table README.md shows. What one operation costs,
// at any level:
//   - A SI Get reads by key: a shared latch hold, a descent, a version. An
//     SSI Get of an existing row is the same hold, which also sets the row's
//     reader word to the transaction's slot (a word set); if the word names
//     another reader, the Get then takes an SIREAD in the lock table and reads
//     again through the handle (a shared hold, a version). S2PL's Get locates
//     the row (a shared hold, the descent) to name its lock and, once
//     granted, reads through the handle (a shared hold, the version): the one
//     read also tells whether another writer's version still holds the row.
//   - A lock on a key no one holds is a request, a shard hold, an owner hold
//     (the grant lists it) and 3 key hashes (the shard index, the table miss,
//     the insert); a lock on a key another holds has 2 (the lookup hits); its
//     release a shard hold, and a hash (the delete) if it empties the entry.
//   - A Put of an existing row locates it (a shared hold, a descent) and
//     claims it in an exclusive hold that looks at its head (a version),
//     probes the row's entry (a probe, a shard hold, 2 hashes) and reads its
//     reader word, at every level: no write takes a lock-table entry unless
//     someone must wait.
//   - A transaction that wrote, or set a word, is queued for retirement once,
//     and on this quiet database drained when its commit precedes every
//     active snapshot; its retirement prunes its rows and clears the words it
//     set, one exclusive hold per table — the drain hands each registry
//     shard's entries to the hook apart, so transactions that retire together
//     share a hold only if they share a shard. One that took a lock holds its
//     owner's mutex once for the commit's release and once for the
//     retirement's; SSI's commit holds it once more, to ask whether SIREADs
//     are left.
//
// kv-uniform, 4 Gets + 2 Puts (TestLockWorkBudget and TestStoreWorkBudget
// derive SSI): SI takes no lock — 2 probes, 2 shard holds, 4 hashes; 6 shared
// and 2 + 1 exclusive holds, 6 versions, 6 descents. SSI is the same in every
// one of those columns: its Gets set 4 words, which the retirement clears in
// the hold that prunes. S2PL takes 4 Shared locks, which its commit releases:
// 4 requests, 10 shard holds, 4 + 2 owner holds, 20 hashes, 2 shared holds a
// Get (10).
//
// The SmallBank Amalgamate, 5 Gets + 3 Puts of rows it read, in three tables
// (TestLockWorkBudget and TestStoreWorkBudget derive SSI): SI — 3 probes (3
// shard holds, 6 hashes), 8 shared and 3 + 2 exclusive holds (the saving and
// checking rows), 8 versions, 8 descents. SSI — the same, and 5 words set, 3
// of which its Puts clear (§3.7.3) and its retirement the 2 on the account
// rows, in a hold of their table: 3 + 3 exclusive holds. S2PL — 5 Shared
// locks, which its Puts' probes find its own and keep (2 hashes each, no
// delete) and its commit releases: 5 + 3 + 5 = 13 shard holds, 5 + 2 = 7
// owner holds, 15 + 6 + 5 = 26 hashes, 10 + 3 = 13 shared holds.
//
// A 64-row Scan and one Put of a row outside the range: SI — the scan is one
// round (one shared hold, one descent, the 64 rows and the key that ends the
// range: 65 versions), then the Put: 1 probe, 2 shared and 2 exclusive holds,
// 66 versions, 2 descents. SSI adds 129 SIREADs in one batch — a row and a
// gap per row, and the gap the range's end key closes — granted in one hold
// of each of the 8 shards, each key hashed 3 times and listed (an owner hold
// each), and released one by one at retirement: 129 requests, 8 + 1 + 129 =
// 138 shard holds, 129 + 3 = 132 owner holds, 387 + 2 + 129 = 518 hashes;
// nothing in the store. S2PL takes the same 129 keys Shared, one at a time
// in key order in the round's flush (none waits), each a request, a shard
// hold, 3 hashes and an owner hold, released one by one at commit: 129
// requests, 129 + 1 + 129 = 259 shard holds, 129 + 2 = 131 owner holds, 387 +
// 2 + 129 = 518 hashes; in the store what SI spends — 2 shared holds, 66
// versions, 2 descents.
//
// A Put of an absent key at the right edge of the tree (TestLockWorkBudget and
// TestStoreWorkBudget derive SI): the locate (a shared hold, a descent) and
// the claim, under every partition latch (an exclusive hold): it looks the
// key up, seeks its successor and inserts it (3 descents), the insert's
// inheritance of its gap's locks (one shard hold for both gap keys, 3
// hashes), and the row's probe (a shard hold, 2 hashes); the retirement's
// prune (an exclusive hold). SI — 1 probe, 2 shard holds, 5 hashes; 1 shared
// and 2 exclusive holds, 4 descents. SSI and S2PL probe, in the claim, the
// supremum gap the key splits before it inserts (a probe, a shard hold, 2
// hashes), and take no lock: the successor cannot change inside the hold, so
// nothing is locked again. 0 requests, 2 probes, 3 shard holds, 0 owner holds,
// 7 hashes; 1 shared and 2 exclusive holds, 4 descents.
//
// A Delete of an existing row, at every level: the locate (a shared hold, a
// descent), the claim, which installs the tombstone in an exclusive hold that
// looks at the head (a version) and probes the row's entry (a probe, a shard
// hold, 2 hashes), and the retirement's prune (an exclusive hold); 1 queued
// and drained. SSI and S2PL take no gap lock, as a Put of the row takes none:
// the key is in the index, so every scan that covered it holds its row lock,
// which the probe finds. 0 requests, 1 probe, 1 shard hold, 0 owner holds, 2
// hashes; 1 shared and 2 exclusive holds, 1 version, 1 descent.
//
// The scan-readmostly reader, declared read-only — 4 Gets and the 64-row
// Scan: no lock at SI, nor at SSI, where it is promoted to a safe snapshot at
// its first read; 5 shared holds, 69 versions, 5 descents at both. S2PL has no
// such promotion, and no row here.
//
// Two transactions that form one rw-antidependency: r reads row x, w writes
// x and commits, r writes row y and commits; w retires only with r, whose
// snapshot precedes its commit. SI — 2 probes, 3 shared and 2 + 2 exclusive
// holds, 3 versions and descents, 2 entries queued and drained, no
// MarkConflict. SSI adds r's word on x, set by its Get and cleared in the
// hold of r's retirement that prunes y, and the one MarkConflict call: w's
// claim finds r in the word. Neither takes a lock. S2PL has no row: there r's
// Shared lock makes w wait, and the spins of a wait are not a fixed count.
//
// A collision — two readers of one row, then a writer of it (collision): w
// reads y; r1 and r2 read x and commit; w writes x and commits. SI — the 3
// Gets and the Put: 1 probe (1 shard hold, 2 hashes), 3 + 1 shared holds, 1 +
// 1 exclusive, 4 versions, 4 descents, w queued and drained. SSI — w's Get
// sets y's word and r1's x's, and r2's finds x's word taken: r2 takes an
// SIREAD on x (a request, a grant, a release at retirement: 2 shard holds, 3
// + 1 hashes, 3 owner holds with its commit's release and question) and
// reads x again (a shared hold, a version) — what a collision costs. w's
// claim finds r2 in the lock table and r1 in the word: 2 MarkConflict calls.
// r1 (its word), r2 (its SIREAD) and w are queued, and retire with w: w's
// retirement prunes x and clears y in one hold, r1's, from another registry
// shard, clears x in another. 1 request, 1 probe, 3 shard holds, 4 owner
// holds, 6 hashes; 5 shared and 3 exclusive holds, 5 versions, 2 words set
// and cleared, 4 descents, 2 marks, 3 queued and drained. S2PL — 3 Shared
// locks (3 + 3 + 2 hashes: r2's finds r1's entry), each released at its
// commit (a shard hold each, a delete for the last holder of x and for y),
// and w's probe: 3 requests, 3 + 3 + 1 = 7 shard holds, 3 + 3 + 1 = 7 owner
// holds (grants, commits, w's retirement), 8 + 2 + 2 = 12 hashes; 2 shared
// holds a Get and w's locate (7), 2 exclusive, 4 versions, 4 descents; w
// alone is queued.
//
// A GetForUpdate of an existing row as a transaction's first statement
// (shapedTxn): it locates the row (a shared hold, a descent) to name its
// lock, takes it Exclusive (a request, a shard hold, an owner hold, 3
// hashes), and then reads it once (a shared hold, a version), which tells
// that no other writer's version holds the row and that none committed
// after the snapshot, taken after that read; the commit releases the lock (a
// shard hold, an owner hold, a hash). SI and S2PL read through the handle,
// and S2PL takes no Shared lock beside the Exclusive one: 1 request, 2 shard
// holds, 2 owner holds, 4 hashes; 2 shared holds, 1 version, 1 descent,
// nothing queued. SSI's read is the one that sets the row's word, by key (a
// second descent), cleared at retirement (an exclusive hold), and the lock
// costs the owner's mutex twice more, for SSI's question and the
// retirement: 1 / 0 / 2 / 4 / 4; 2 shared and 1 exclusive holds, 1 version,
// 1 word set and cleared, 2 descents, 1 queued and drained. After a Get of
// another row (Get + GetForUpdate), which gave the transaction its
// snapshot, the GetForUpdate costs the same: SI and SSI add the Get's one
// shared hold, version and descent (3 shared holds; SSI's Get sets a second
// word, which the retirement clears in the same hold), S2PL its Shared lock
// (a request, 2 shard holds, an owner hold, 4 hashes) and 2 shared holds (4).
func TestSSIOverSIWorkBudget(t *testing.T) {
	open := func(lockShards int) *ssidb.DB {
		return ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, TableShards: 1, LockShards: lockShards})
	}
	// kvmixDB opens a kvmix load; the absent-key Puts each get their own, on
	// one lock shard.
	kvmixDB := func(lockShards int) *ssidb.DB {
		db := open(lockShards)
		if err := kvmix.Load(db, kvmix.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		return db
	}
	kv, bank := kvmixDB(8), open(8)
	const n = 500
	si, ssi, s2pl := ssidb.SnapshotIsolation, ssidb.SerializableSI, ssidb.S2PL
	amalgamate := map[ssidb.Isolation]func(){}
	for _, iso := range []ssidb.Isolation{si, ssi, s2pl} {
		amalgamate[iso] = amalgamatesAt(t, bank, iso)
	}
	reader, promotedAll := promotedReader(t, kv, n+1)

	type row struct {
		shape string
		iso   ssidb.Isolation
		run   func()
		want  ledger
	}
	rows := []row{
		{"kv-uniform", si, shapedTxn(t, kv, si, txnShape{gets: 4, puts: 2}), ledger{0, 2, 2, 0, 4, 6, 3, 6, 0, 0, 6, 0, 1, 1}},
		{"kv-uniform", ssi, shapedTxn(t, kv, ssi, txnShape{gets: 4, puts: 2}), ledger{0, 2, 2, 0, 4, 6, 3, 6, 4, 4, 6, 0, 1, 1}},
		{"kv-uniform", s2pl, shapedTxn(t, kv, s2pl, txnShape{gets: 4, puts: 2}), ledger{4, 2, 10, 6, 20, 10, 3, 6, 0, 0, 6, 0, 1, 1}},
		{"Amalgamate", si, amalgamate[si], ledger{0, 3, 3, 0, 6, 8, 5, 8, 0, 0, 8, 0, 1, 1}},
		{"Amalgamate", ssi, amalgamate[ssi], ledger{0, 3, 3, 0, 6, 8, 6, 8, 5, 5, 8, 0, 1, 1}},
		{"Amalgamate", s2pl, amalgamate[s2pl], ledger{5, 3, 13, 7, 26, 13, 5, 8, 0, 0, 8, 0, 1, 1}},
		{"64-row Scan + Put", si, scanPuts(t, kv, si), ledger{0, 1, 1, 0, 2, 2, 2, 66, 0, 0, 2, 0, 1, 1}},
		{"64-row Scan + Put", ssi, scanPuts(t, kv, ssi), ledger{129, 1, 138, 132, 518, 2, 2, 66, 0, 0, 2, 0, 1, 1}},
		{"64-row Scan + Put", s2pl, scanPuts(t, kv, s2pl), ledger{129, 1, 259, 131, 518, 2, 2, 66, 0, 0, 2, 0, 1, 1}},
		{"Put of an absent key", si, absentPutsAt(t, kvmixDB(1), si), ledger{0, 1, 2, 0, 5, 1, 2, 0, 0, 0, 4, 0, 1, 1}},
		{"Put of an absent key", ssi, absentPutsAt(t, kvmixDB(1), ssi), ledger{0, 2, 3, 0, 7, 1, 2, 0, 0, 0, 4, 0, 1, 1}},
		{"Put of an absent key", s2pl, absentPutsAt(t, kvmixDB(1), s2pl), ledger{0, 2, 3, 0, 7, 1, 2, 0, 0, 0, 4, 0, 1, 1}},
		{"Delete of an existing row", si, deletesAt(t, kv, si, 0x1041), ledger{0, 1, 1, 0, 2, 1, 2, 1, 0, 0, 1, 0, 1, 1}},
		{"Delete of an existing row", ssi, deletesAt(t, kv, ssi, 0x1041+2*(n+1)), ledger{0, 1, 1, 0, 2, 1, 2, 1, 0, 0, 1, 0, 1, 1}},
		{"Delete of an existing row", s2pl, deletesAt(t, kv, s2pl, 0x1041+4*(n+1)), ledger{0, 1, 1, 0, 2, 1, 2, 1, 0, 0, 1, 0, 1, 1}},
		{"read-only reader", si, scanReader(t, kv, si), ledger{0, 0, 0, 0, 0, 5, 0, 69, 0, 0, 5, 0, 0, 0}},
		{"read-only reader", ssi, reader, ledger{0, 0, 0, 0, 0, 5, 0, 69, 0, 0, 5, 0, 0, 0}},
		{"rw pair", si, antiDependency(t, kv, si), ledger{0, 2, 2, 0, 4, 3, 4, 3, 0, 0, 3, 0, 2, 2}},
		{"rw pair", ssi, antiDependency(t, kv, ssi), ledger{0, 2, 2, 0, 4, 3, 4, 3, 1, 1, 3, 1, 2, 2}},
		{"collision", si, collision(t, kv, si), ledger{0, 1, 1, 0, 2, 4, 2, 4, 0, 0, 4, 0, 1, 1}},
		{"collision", ssi, collision(t, kv, ssi), ledger{1, 1, 3, 4, 6, 5, 3, 5, 2, 2, 4, 2, 3, 3}},
		{"collision", s2pl, collision(t, kv, s2pl), ledger{3, 1, 7, 7, 12, 7, 2, 4, 0, 0, 4, 0, 1, 1}},
		{"GetForUpdate", si, shapedTxn(t, kv, si, txnShape{locked: 1}), ledger{1, 0, 2, 2, 4, 2, 0, 1, 0, 0, 1, 0, 0, 0}},
		{"GetForUpdate", ssi, shapedTxn(t, kv, ssi, txnShape{locked: 1}), ledger{1, 0, 2, 4, 4, 2, 1, 1, 1, 1, 2, 0, 1, 1}},
		{"GetForUpdate", s2pl, shapedTxn(t, kv, s2pl, txnShape{locked: 1}), ledger{1, 0, 2, 2, 4, 2, 0, 1, 0, 0, 1, 0, 0, 0}},
		{"Get + GetForUpdate", si, shapedTxn(t, kv, si, txnShape{gets: 1, locked: 1}), ledger{1, 0, 2, 2, 4, 3, 0, 2, 0, 0, 2, 0, 0, 0}},
		{"Get + GetForUpdate", ssi, shapedTxn(t, kv, ssi, txnShape{gets: 1, locked: 1}), ledger{1, 0, 2, 4, 4, 3, 1, 2, 2, 2, 3, 0, 1, 1}},
		{"Get + GetForUpdate", s2pl, shapedTxn(t, kv, s2pl, txnShape{gets: 1, locked: 1}), ledger{2, 0, 4, 3, 8, 4, 0, 2, 0, 0, 2, 0, 0, 0}},
	}
	var table strings.Builder
	fmt.Fprintf(&table, "| shape | level | %s |\n", strings.Join(ledgerColumns[:], " | "))
	fmt.Fprintf(&table, "|%s\n", strings.Repeat("---|", len(ledgerColumns)+2))
	var siRow ledger
	for _, r := range rows {
		r.run()
		before := readLedger()
		for i := 0; i < n; i++ {
			r.run()
		}
		after := readLedger()
		var got ledger
		for i := range got {
			got[i] = (after[i] - before[i]) / n
			if after[i]-before[i] != n*r.want[i] {
				t.Errorf("%s at %v: %s %d over %d transactions, want %d each", r.shape, r.iso, ledgerColumns[i], after[i]-before[i], n, r.want[i])
			}
		}
		fmt.Fprintf(&table, "| %s | %v |", r.shape, r.iso)
		for _, v := range got {
			fmt.Fprintf(&table, " %d |", v)
		}
		table.WriteString("\n")
		switch r.iso {
		case si:
			siRow = got
		case ssi:
			fmt.Fprintf(&table, "| %s | SSI − SI |", r.shape)
			for i, v := range got {
				fmt.Fprintf(&table, " %+d |", int64(v)-int64(siRow[i]))
			}
			table.WriteString("\n")
		}
	}
	promotedAll()
	t.Logf("per transaction, TableShards 1, LockShards 8 (1 for the absent key):\n%s", table.String())
}

// pageKey is row i of a pageDB: even indexes are loaded, odd ones absent.
func pageKey(i int) []byte { return []byte(fmt.Sprintf("p%05d", i)) }

// pageDB opens a page-granularity database on one lock shard and loads rows
// 0, 2, …, 1998 of pageKey into table "t" in ascending order, 64 keys a page:
// 15 full leaves, a last leaf of 40 keys, and a root over the 16 — a
// two-level tree.
func pageDB(t *testing.T) *ssidb.DB {
	db := ssidb.Open(ssidb.Options{Detector: ssidb.DetectorPrecise, Granularity: ssidb.GranularityPage, PageMaxKeys: 64, LockShards: 1})
	if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		for i := 0; i < 1000; i++ {
			if err := tx.Put("t", pageKey(2*i), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// pageShape returns transactions at iso of one operation each on a fresh
// pageDB, the operation op makes of the call's number (from 1).
func pageShape(t *testing.T, iso ssidb.Isolation, op func(tx *ssidb.Txn, call int) error) func() {
	db := pageDB(t)
	call := 0
	return func() {
		call++
		if err := db.Run(iso, func(tx *ssidb.Txn) error { return op(tx, call) }); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPageWorkBudget is the page-granularity ledger, at SI, SSI and S2PL:
// the columns of TestSSIOverSIWorkBudget, per transaction and exact, for
// transactions of one operation each on a pageDB (a root over 16 leaves, one
// lock shard). A page operation locks its path — the root, then the leaf — in
// the shared latch hold that reads it (mvcc.Table.OnPath), so a point operation
// descends once to lock and once to read or claim. Run it with
//
//	go test -tags workcount -run PageWorkBudget .
//
// What one operation costs:
//   - A page lock no one holds is a request, a shard hold, an owner hold (the
//     grant lists it) and 3 hashes; its release a shard hold and a hash (the
//     entry empties). A commit holds the owner's mutex to release, SSI's once
//     more to ask whether SIREADs are left, and a retirement once to release
//     the rest. A transaction that wrote, or holds an SIREAD, is queued for
//     retirement and drained at its commit on this quiet database.
//   - A Get: SI reads by key (a shared hold, a descent, a version). SSI locks
//     root and leaf SIREAD in OnPath (a shared hold, a descent), then reads by
//     key (another): 2 requests, 2 + 2 shard holds, 2 + 3 owner holds, 6 + 2
//     hashes; 2 shared holds, 2 descents. S2PL takes them Shared, released at
//     commit: the same, with 2 + 1 owner holds, and nothing queued.
//   - A GetForUpdate locks its path in one OnPath hold — the leaf Exclusive,
//     the root in the level's read mode — and then reads by key: 2 shared
//     holds, 2 descents, a version. The Exclusive leaf lock stands for the
//     read's SIREAD (§3.7.3), so there is no second pass; SSI stamps the leaf
//     instead, and the leaf's stamps are the First-Committer-Wins check. SI
//     locks the leaf alone, released at commit: 1 request, 2 shard holds, 2
//     owner holds, 4 hashes, nothing queued. SSI's root SIREAD makes it what
//     SSI's Get costs (2 / 4 / 5 / 8, queued), S2PL's root Shared what S2PL's
//     Get costs (2 / 4 / 3 / 8).
//   - A Put of an existing key locates the row (a shared hold, a descent),
//     locks its path (another), claims in an exclusive hold that looks at the
//     head (a version) and is pruned at retirement (an exclusive hold). SI
//     locks the leaf alone, Exclusive: 1 request, 2 shard holds, 1 + 2 owner
//     holds, 4 hashes. SSI adds the root's SIREAD (2 / 4 / 5 / 8), S2PL the
//     root's Shared (2 / 4 / 4 / 8).
//   - An Insert that does not split locks as the Put, and its path walk plans
//     the split in the same descent; its claim, under every partition latch,
//     looks the key up, seeks its successor and inserts it: 3 descents, 5 in
//     all, and no version.
//   - An Insert that splits its leaf takes the whole path Exclusive at every
//     level, and the split hands the new page its Exclusive lock (Inherit: a
//     shard hold, 5 hashes — both keys' shard, the source's entry, the new
//     entry's miss and insert — and an owner hold to list it): 2 requests, 2 +
//     1 + 3 shard holds (3 entries released), 2 + 1 + 2 owner holds (+1 for
//     SSI's question), 6 + 5 + 3 = 14 hashes; the store as the Insert above.
//   - A 64-row Scan of the rows on leaves 1 and 2: SI is one round (a shared
//     hold, a descent, the 64 rows and the key that ends the range: 65
//     versions). SSI's round also reads the descent path to the range's start
//     under the round's latch (a descent, no hold) and takes root, leaf 1 and
//     leaf 2 SIREAD in one batch: 3 requests, 1 + 3 shard holds, 3 + 3 owner
//     holds, 9 + 3 hashes. S2PL takes the same 3 Shared one at a time in the
//     round's flush: 3 + 3 shard holds, 3 + 1 owner holds, 12 hashes, nothing
//     queued.
func TestPageWorkBudget(t *testing.T) {
	const n = 10 // inserts that split: 1 + n of the 15 full leaves
	val := []byte("w")
	get := func(tx *ssidb.Txn, call int) error {
		_, _, err := tx.Get("t", pageKey(2*(64*call+7)))
		return err
	}
	forUpdate := func(tx *ssidb.Txn, call int) error {
		_, _, err := tx.GetForUpdate("t", pageKey(2*(64*call+7)))
		return err
	}
	put := func(tx *ssidb.Txn, call int) error { return tx.Put("t", pageKey(2*(64*call+7)), val) }
	insert := func(tx *ssidb.Txn, call int) error { return tx.Insert("t", pageKey(2*(1000+call)), val) }
	split := func(tx *ssidb.Txn, call int) error { return tx.Insert("t", pageKey(2*(64*call+32)+1), val) }
	scan := func(tx *ssidb.Txn, _ int) error {
		return tx.Scan("t", pageKey(200), pageKey(328), func(k, v []byte) bool { return true })
	}
	si, ssi, s2pl := ssidb.SnapshotIsolation, ssidb.SerializableSI, ssidb.S2PL
	for _, r := range []struct {
		shape string
		iso   ssidb.Isolation
		op    func(tx *ssidb.Txn, call int) error
		want  ledger
	}{
		{"Get", si, get, ledger{0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0}},
		{"Get", ssi, get, ledger{2, 0, 4, 5, 8, 2, 0, 1, 0, 0, 2, 0, 1, 1}},
		{"Get", s2pl, get, ledger{2, 0, 4, 3, 8, 2, 0, 1, 0, 0, 2, 0, 0, 0}},
		{"GetForUpdate", si, forUpdate, ledger{1, 0, 2, 2, 4, 2, 0, 1, 0, 0, 2, 0, 0, 0}},
		{"GetForUpdate", ssi, forUpdate, ledger{2, 0, 4, 5, 8, 2, 0, 1, 0, 0, 2, 0, 1, 1}},
		{"GetForUpdate", s2pl, forUpdate, ledger{2, 0, 4, 3, 8, 2, 0, 1, 0, 0, 2, 0, 0, 0}},
		{"Put of an existing key", si, put, ledger{1, 0, 2, 3, 4, 2, 2, 1, 0, 0, 2, 0, 1, 1}},
		{"Put of an existing key", ssi, put, ledger{2, 0, 4, 5, 8, 2, 2, 1, 0, 0, 2, 0, 1, 1}},
		{"Put of an existing key", s2pl, put, ledger{2, 0, 4, 4, 8, 2, 2, 1, 0, 0, 2, 0, 1, 1}},
		{"Insert, no split", si, insert, ledger{1, 0, 2, 3, 4, 2, 2, 0, 0, 0, 5, 0, 1, 1}},
		{"Insert, no split", ssi, insert, ledger{2, 0, 4, 5, 8, 2, 2, 0, 0, 0, 5, 0, 1, 1}},
		{"Insert, no split", s2pl, insert, ledger{2, 0, 4, 4, 8, 2, 2, 0, 0, 0, 5, 0, 1, 1}},
		{"Insert that splits", si, split, ledger{2, 0, 6, 5, 14, 2, 2, 0, 0, 0, 5, 0, 1, 1}},
		{"Insert that splits", ssi, split, ledger{2, 0, 6, 6, 14, 2, 2, 0, 0, 0, 5, 0, 1, 1}},
		{"Insert that splits", s2pl, split, ledger{2, 0, 6, 5, 14, 2, 2, 0, 0, 0, 5, 0, 1, 1}},
		{"64-row Scan", si, scan, ledger{0, 0, 0, 0, 0, 1, 0, 65, 0, 0, 1, 0, 0, 0}},
		{"64-row Scan", ssi, scan, ledger{3, 0, 4, 6, 12, 1, 0, 65, 0, 0, 2, 0, 1, 1}},
		{"64-row Scan", s2pl, scan, ledger{3, 0, 6, 4, 12, 1, 0, 65, 0, 0, 2, 0, 0, 0}},
	} {
		run := pageShape(t, r.iso, r.op)
		run()
		before := readLedger()
		for range n {
			run()
		}
		after := readLedger()
		for i := range r.want {
			if got := after[i] - before[i]; got != n*r.want[i] {
				t.Errorf("%s at %v: %s %d over %d transactions, want %d each", r.shape, r.iso, ledgerColumns[i], got, n, r.want[i])
			}
		}
	}
}
