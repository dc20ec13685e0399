package ssidb_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssi/internal/lock"
	"ssi/internal/sercheck"
	"ssi/ssidb"
)

func mustOpenDir(t *testing.T, dir string, opts ssidb.Options) *ssidb.DB {
	t.Helper()
	db, err := ssidb.OpenDir(dir, opts)
	if err != nil {
		t.Fatalf("OpenDir(%s): %v", dir, err)
	}
	return db
}

func mustGet(t *testing.T, db *ssidb.DB, table string, key string) ([]byte, bool) {
	t.Helper()
	var val []byte
	var found bool
	err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		v, ok, err := tx.Get(table, []byte(key))
		if err != nil {
			return err
		}
		if ok {
			val = append([]byte(nil), v...)
		}
		found = ok
		return nil
	})
	if err != nil {
		t.Fatalf("Get %s/%s: %v", table, key, err)
	}
	return val, found
}

func TestDurableReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir, ssidb.Options{})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%03d", i)
		if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
			return tx.Put("t", []byte(key), []byte(fmt.Sprintf("v%03d", i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite, delete, and a second table.
	if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		if err := tx.Put("t", []byte("k000"), []byte("rewritten")); err != nil {
			return err
		}
		if err := tx.Delete("t", []byte("k001")); err != nil {
			return err
		}
		return tx.Put("u", []byte("other"), []byte("table"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenDir(t, dir, ssidb.Options{})
	defer db2.Close()
	st := db2.StatsSnapshot()
	if st.RecoveryReplayed == 0 {
		t.Fatalf("RecoveryReplayed = 0 after reopen; stats %+v", st)
	}
	if v, ok := mustGet(t, db2, "t", "k000"); !ok || string(v) != "rewritten" {
		t.Fatalf("k000 = %q %v", v, ok)
	}
	if _, ok := mustGet(t, db2, "t", "k001"); ok {
		t.Fatal("deleted key resurrected")
	}
	for i := 2; i < 50; i++ {
		key := fmt.Sprintf("k%03d", i)
		if v, ok := mustGet(t, db2, "t", key); !ok || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("%s = %q %v", key, v, ok)
		}
	}
	if v, ok := mustGet(t, db2, "u", "other"); !ok || string(v) != "table" {
		t.Fatalf("u/other = %q %v", v, ok)
	}
}

// TestOverlongKeyRefusedAcrossReopen: a write of a key or table name longer
// than 65 535 bytes, which no redo entry can name, is refused as a statement,
// at every level and on an in-memory database too; the transaction commits
// its other writes, and the directory reopens with them. A 65 535-byte key
// commits and survives the reopen.
func TestOverlongKeyRefusedAcrossReopen(t *testing.T) {
	long := bytes.Repeat([]byte("k"), 1<<16)
	longest := long[:1<<16-1]
	levels := []ssidb.Isolation{ssidb.SnapshotIsolation, ssidb.SerializableSI, ssidb.S2PL}
	refuse := func(t *testing.T, db *ssidb.DB, iso ssidb.Isolation, key string) {
		t.Helper()
		if err := db.Run(iso, func(tx *ssidb.Txn) error {
			for name, err := range map[string]error{
				"Put":        tx.Put("t", long, []byte("v")),
				"Insert":     tx.Insert("t", long, []byte("v")),
				"Delete":     tx.Delete("t", long),
				"long table": tx.Put(string(long), []byte("k"), []byte("v")),
			} {
				if !errors.Is(err, ssidb.ErrKeyTooLong) {
					t.Errorf("%v %s: %v, want ErrKeyTooLong", iso, name, err)
				}
			}
			return tx.Put("t", []byte(key), []byte("ok"))
		}); err != nil {
			t.Fatalf("%v: the transaction that was refused a write: %v", iso, err)
		}
	}
	mem := ssidb.Open(ssidb.Options{})
	for _, iso := range levels {
		refuse(t, mem, iso, iso.String())
	}
	dir := t.TempDir()
	db := mustOpenDir(t, dir, ssidb.Options{})
	for _, iso := range levels {
		refuse(t, db, iso, iso.String())
	}
	if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
		return tx.Put("t", longest, []byte("longest"))
	}); err != nil {
		t.Fatalf("a 65 535-byte key: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = mustOpenDir(t, dir, ssidb.Options{})
	defer db.Close()
	for _, iso := range levels {
		if v, ok := mustGet(t, db, "t", iso.String()); !ok || string(v) != "ok" {
			t.Errorf("after reopen, %v's write reads %q, %v", iso, v, ok)
		}
	}
	if v, ok := mustGet(t, db, "t", string(longest)); !ok || string(v) != "longest" {
		t.Errorf("after reopen, the 65 535-byte key reads %q, %v", v, ok)
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir, ssidb.Options{SegmentBytes: 256, CheckpointBytes: -1})
	put := func(db *ssidb.DB, k, v string) {
		t.Helper()
		if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			return tx.Put("t", []byte(k), []byte(v))
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		put(db, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%03d", i))
	}
	segsBefore := countSegments(t, dir)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := db.StatsSnapshot(); st.Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d", st.Checkpoints)
	}
	if after := countSegments(t, dir); after >= segsBefore {
		t.Fatalf("checkpoint truncated nothing: %d → %d segments", segsBefore, after)
	}
	// Post-checkpoint traffic lands in the log and is replayed on top of
	// the image.
	put(db, "k000", "post-ckpt")
	put(db, "k100", "new")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenDir(t, dir, ssidb.Options{CheckpointBytes: -1})
	defer db2.Close()
	st := db2.StatsSnapshot()
	if st.RecoveryReplayed == 0 || st.RecoveryReplayed >= 30 {
		t.Fatalf("RecoveryReplayed = %d, want only post-checkpoint records", st.RecoveryReplayed)
	}
	if v, ok := mustGet(t, db2, "t", "k000"); !ok || string(v) != "post-ckpt" {
		t.Fatalf("k000 = %q %v", v, ok)
	}
	if v, ok := mustGet(t, db2, "t", "k100"); !ok || string(v) != "new" {
		t.Fatalf("k100 = %q %v", v, ok)
	}
	for i := 1; i < 30; i++ {
		key := fmt.Sprintf("k%03d", i)
		if v, ok := mustGet(t, db2, "t", key); !ok || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("%s = %q %v", key, v, ok)
		}
	}
}

// TestCensusCreatesNoTable: asking about a table that does not exist creates
// nothing, so the next checkpoint declares no table under that name and none
// survives a reopen.
func TestCensusCreatesNoTable(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir, ssidb.Options{CheckpointBytes: -1})
	if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		return tx.Put("t", []byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	if st := db.TableStats("ghost"); st != (ssidb.TableStats{}) {
		t.Fatalf("TableStats(ghost) = %+v, want zero", st)
	}
	db.StatsSnapshot()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpenDir(t, dir, ssidb.Options{CheckpointBytes: -1})
	defer db2.Close()
	if got := db2.TableStats("ghost").Shards; got != 0 {
		t.Fatalf("ghost table recovered with %d shards, want 0 (never created)", got)
	}
	if got := db2.TableStats("t").Keys; got != 1 {
		t.Fatalf("table t recovered with %d keys, want 1", got)
	}
}

// TestCheckpointAfterCloseRefused: a checkpoint of a closed database is an
// error and touches nothing — it must neither publish a CHECKPOINT nor
// truncate segments through the closed log. The same check stops an
// automatic checkpoint that a last commit started and that runs after Close.
func TestCheckpointAfterCloseRefused(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir, ssidb.Options{SegmentBytes: 4 << 10, CheckpointBytes: -1})
	for i := 0; i < 200; i++ {
		if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			return tx.Put("t", []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	list := func() []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	before := list()
	if err := db.Checkpoint(); err == nil {
		t.Fatal("Checkpoint after Close returned nil")
	}
	if after := list(); !slices.Equal(before, after) {
		t.Fatalf("Checkpoint after Close changed the directory: %v → %v", before, after)
	}
}

// TestAutoCheckpointUnderPinnedSnapshot: automatic checkpoints keep running,
// and keep truncating the log, while a snapshot is held open. A checkpoint
// takes a fresh snapshot of its own, so a long reader has nothing to do with
// when one may run; they used to be triggered from watermark advances, which
// a held snapshot stops, and the log grew for as long as the reader ran.
func TestAutoCheckpointUnderPinnedSnapshot(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDir(t, dir, ssidb.Options{SegmentBytes: 16 << 10, CheckpointBytes: 64 << 10})
	defer db.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("fresh log: segments %v, %v", segs, err)
	}
	pin := db.Begin(ssidb.SnapshotIsolation)
	defer pin.Abort()
	if _, _, err := pin.Get("t", []byte("k000")); err != nil { // takes the snapshot
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			return tx.Put("t", []byte(fmt.Sprintf("k%03d", i%100)), i64(int64(i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoints run asynchronously: wait for one to have truncated the
	// segment the log started in.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(segs[0]); os.IsNotExist(err) && db.StatsSnapshot().Checkpoints > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("under a held snapshot: %d checkpoints, first segment truncated: %v", db.StatsSnapshot().Checkpoints, err)
		}
	}
	t.Logf("%d checkpoints, %d segments left", db.StatsSnapshot().Checkpoints, countSegments(t, dir))
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

// buildSequentialLog creates a durable DB where transaction i writes
// key fmt("k%03d", i) — one WAL record per transaction, in commit order —
// and returns the single segment's contents.
func buildSequentialLog(t *testing.T, dir string, n int) []byte {
	t.Helper()
	db := mustOpenDir(t, dir, ssidb.Options{CheckpointBytes: -1})
	for i := 0; i < n; i++ {
		if err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
			return tx.Put("t", []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// walFrameOffsets parses the record boundaries of a segment image (the
// frame header is crc32(4) | len(4) | ts(8)).
func walFrameOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	offs := []int{0}
	off := 0
	for off < len(data) {
		plen := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		off += 16 + plen
		offs = append(offs, off)
	}
	return offs
}

// verifyPrefixState asserts the recovered database holds exactly the writes
// of the first n sequential transactions.
func verifyPrefixState(t *testing.T, db *ssidb.DB, n, total int) {
	t.Helper()
	for i := 0; i < total; i++ {
		key := fmt.Sprintf("k%03d", i)
		v, ok := mustGet(t, db, "t", key)
		if i < n {
			if !ok || string(v) != fmt.Sprintf("v%03d", i) {
				t.Fatalf("prefix %d: %s = %q %v, want present", n, key, v, ok)
			}
		} else if ok {
			t.Fatalf("prefix %d: %s present, want lost", n, key)
		}
	}
}

// TestCrashMatrixTruncation cuts the log at every record boundary and at a
// mid-record offset inside every frame (a torn write), then verifies that
// recovery yields exactly the transaction prefix before the cut — no
// committed write before the cut lost, nothing after it resurrected.
func TestCrashMatrixTruncation(t *testing.T) {
	const n = 10
	master := t.TempDir()
	data := buildSequentialLog(t, master, n)
	offs := walFrameOffsets(t, data)
	if len(offs) != n+1 {
		t.Fatalf("expected %d records, found %d", n, len(offs)-1)
	}

	type cut struct {
		at     int
		prefix int
	}
	var cuts []cut
	for i, off := range offs {
		cuts = append(cuts, cut{off, i})
	}
	for i := 1; i < len(offs); i++ {
		mid := (offs[i-1] + offs[i]) / 2
		cuts = append(cuts, cut{mid, i - 1}) // record i-1 (0-based) is torn away
	}

	for _, c := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), data[:c.at], 0o644); err != nil {
			t.Fatal(err)
		}
		db := mustOpenDir(t, dir, ssidb.Options{CheckpointBytes: -1})
		if st := db.StatsSnapshot(); st.RecoveryReplayed != uint64(c.prefix) {
			t.Fatalf("cut at %d: replayed %d, want %d", c.at, st.RecoveryReplayed, c.prefix)
		}
		verifyPrefixState(t, db, c.prefix, n)
		db.Close()
	}
}

// TestCrashMatrixCorruption flips one byte at several positions; everything
// from the corrupt record on is dropped, the prefix survives.
func TestCrashMatrixCorruption(t *testing.T) {
	const n = 8
	master := t.TempDir()
	data := buildSequentialLog(t, master, n)
	offs := walFrameOffsets(t, data)

	for rec := 0; rec < n; rec++ {
		for _, delta := range []int{0, 5, 16} { // crc byte, header byte, payload byte
			dir := t.TempDir()
			mut := append([]byte(nil), data...)
			mut[offs[rec]+delta] ^= 0xA5
			if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			db := mustOpenDir(t, dir, ssidb.Options{CheckpointBytes: -1})
			if st := db.StatsSnapshot(); st.RecoveryReplayed != uint64(rec) {
				t.Fatalf("corrupt rec %d (+%d): replayed %d, want %d", rec, delta, st.RecoveryReplayed, rec)
			}
			verifyPrefixState(t, db, rec, n)
			db.Close()
		}
	}
}

// copyDirSnapshot copies a live WAL directory, simulating the on-disk image
// a crash at this instant would leave (append-only files, so a concurrent
// partial read is indistinguishable from a torn write — which recovery
// tolerates by design).
func copyDirSnapshot(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			continue // segment truncated away mid-copy; a valid crash image either way
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRandomizedKillPoints runs a concurrent money-transfer workload against
// a durable database, snapshots the directory at random instants (crash
// images), and verifies every image recovers to a consistent state: total
// money conserved, no write from a deliberately-aborted transaction
// resurrected, and the recovered database still serializable under load.
func TestRandomizedKillPoints(t *testing.T) {
	const (
		accounts = 32
		workers  = 4
		initial  = 1000
		images   = 6
	)
	dir := t.TempDir()
	db := mustOpenDir(t, dir, ssidb.Options{
		SegmentBytes:        4 << 10,
		CheckpointBytes:     -1,
		GroupCommitMaxDelay: 100 * time.Microsecond,
	})
	if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		for i := 0; i < accounts; i++ {
			if err := tx.Put("acct", accountKey(i), i64(initial)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; !stop.Load(); i++ {
				if i%5 == 4 {
					// A transaction that writes and then aborts: its write
					// must never be visible in any recovered image.
					tx := db.Begin(ssidb.SerializableSI)
					tx.Put("poison", []byte(fmt.Sprintf("p%d-%d", w, i)), []byte("boom"))
					tx.Abort()
					continue
				}
				from, to := r.Intn(accounts), r.Intn(accounts)
				if from == to {
					continue
				}
				// RunRetry's jittered backoff is load-bearing here: under
				// the default basic detector, four workers pinned to
				// overlapping accounts can otherwise re-create the same
				// dangerous structure in lockstep forever and never return.
				db.RunRetry(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
					return transfer(tx, from, to, 1+int64(r.Intn(10)))
				})
			}
		}(w)
	}

	snapDirs := make([]string, 0, images)
	for i := 0; i < images; i++ {
		time.Sleep(20 * time.Millisecond)
		snap := t.TempDir()
		copyDirSnapshot(t, dir, snap)
		snapDirs = append(snapDirs, snap)
	}
	stop.Store(true)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		// Stuck-lock watchdog: dump the lock-table state of every account
		// before failing, so a wedge is diagnosable from the test log.
		lm := ssidb.LockManagerForTest(db)
		for i := 0; i < accounts; i++ {
			t.Logf("%s", lm.DumpKey(lock.RowKey("acct", accountKey(i))))
		}
		buf := make([]byte, 1<<20)
		t.Logf("goroutines:\n%s", buf[:runtime.Stack(buf, true)])
		// A second sample discriminates a true wedge (identical state) from
		// a livelock (counters advancing, txn ids churning).
		s1 := db.StatsSnapshot()
		time.Sleep(2 * time.Second)
		s2 := db.StatsSnapshot()
		t.Logf("2s delta: walAppends=%d parks=%d wakeups=%d spinGrants=%d waits=%d",
			s2.WALAppends-s1.WALAppends,
			s2.LockParks-s1.LockParks, s2.LockWakeups-s1.LockWakeups,
			s2.LockSpinGrants-s1.LockSpinGrants, s2.LockWaits-s1.LockWaits)
		for i := 0; i < accounts; i++ {
			if d := lm.DumpKey(lock.RowKey("acct", accountKey(i))); !strings.Contains(d, "no entry") {
				t.Logf("resample %s", d)
			}
		}
		t.Logf("goroutines #2:\n%s", buf[:runtime.Stack(buf, true)])
		t.Fatal("workers did not quiesce after stop")
	}
	db.Close()

	for i, snap := range snapDirs {
		func() {
			hist := sercheck.NewHistory()
			rdb, err := ssidb.OpenDir(snap, ssidb.Options{Recorder: hist, CheckpointBytes: -1})
			if err != nil {
				t.Fatalf("image %d: %v", i, err)
			}
			defer rdb.Close()
			verifyMoney(t, rdb, accounts, accounts*initial)
			if err := rdb.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
				return tx.Scan("poison", nil, nil, func(k, v []byte) bool {
					t.Errorf("image %d: aborted write resurrected: %q", i, k)
					return false
				})
			}); err != nil {
				t.Fatal(err)
			}
			// The recovered database must still be serializable under load.
			var wg2 sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg2.Add(1)
				go func(w int) {
					defer wg2.Done()
					r := rand.New(rand.NewSource(int64(100 + w)))
					for j := 0; j < 25; j++ {
						from, to := r.Intn(accounts), r.Intn(accounts)
						if from == to {
							continue
						}
						rdb.RunRetry(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
							return transfer(tx, from, to, 1)
						})
					}
				}(w)
			}
			wg2.Wait()
			if ok, cyc := hist.Serializable(); !ok {
				t.Fatalf("image %d: post-recovery history not serializable: cycle %v", i, cyc)
			}
			verifyMoney(t, rdb, accounts, accounts*initial)
		}()
	}
}

func accountKey(i int) []byte { return []byte(fmt.Sprintf("a%04d", i)) }

func i64(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

func geti64(b []byte) int64 { return int64(binary.BigEndian.Uint64(b)) }

func transfer(tx *ssidb.Txn, from, to int, amt int64) error {
	fv, ok, err := tx.Get("acct", accountKey(from))
	if err != nil || !ok {
		return err
	}
	tv, ok, err := tx.Get("acct", accountKey(to))
	if err != nil || !ok {
		return err
	}
	if err := tx.Put("acct", accountKey(from), i64(geti64(fv)-amt)); err != nil {
		return err
	}
	return tx.Put("acct", accountKey(to), i64(geti64(tv)+amt))
}

func verifyMoney(t *testing.T, db *ssidb.DB, accounts int, want int64) {
	t.Helper()
	var total int64
	n := 0
	if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
		total, n = 0, 0
		return tx.Scan("acct", nil, nil, func(k, v []byte) bool {
			total += geti64(v)
			n++
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if n != accounts || total != want {
		t.Fatalf("money: %d accounts sum %d, want %d accounts sum %d", n, total, accounts, want)
	}
}

// TestGroupCommitDurable drives concurrent committers through real fsyncs
// and checks that batching happened: far fewer fsyncs than commits, average
// batch size above one.
func TestGroupCommitDurable(t *testing.T) {
	const workers = 16
	const each = 25
	dir := t.TempDir()
	db := mustOpenDir(t, dir, ssidb.Options{GroupCommitMaxDelay: 200 * time.Microsecond})
	defer db.Close()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("w%02d-%03d", w, i)
				if err := db.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
					return tx.Put("t", []byte(key), []byte("v"))
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := db.StatsSnapshot()
	if st.WALAppends != workers*each {
		t.Fatalf("WALAppends = %d, want %d", st.WALAppends, workers*each)
	}
	if st.Fsyncs >= workers*each/2 {
		t.Fatalf("group commit ineffective: %d fsyncs for %d commits", st.Fsyncs, workers*each)
	}
	if st.AvgBatchSize <= 1.0 {
		t.Fatalf("AvgBatchSize = %.2f", st.AvgBatchSize)
	}
}

// TestWALStatsShardTransparency runs the same committed workload at the two
// sharding extremes and checks the durability counters agree: sharding the
// lock table or the row store must not change what is logged.
func TestWALStatsShardTransparency(t *testing.T) {
	run := func(lockShards, tableShards int) (ssidb.Stats, string) {
		dir := t.TempDir()
		db := mustOpenDir(t, dir, ssidb.Options{
			LockShards:      lockShards,
			TableShards:     tableShards,
			CheckpointBytes: -1,
		})
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("k%03d", i%16)
			err := db.Run(ssidb.SerializableSI, func(tx *ssidb.Txn) error {
				if i%7 == 3 {
					return tx.Delete("t", []byte(key))
				}
				return tx.Put("t", []byte(key), []byte(fmt.Sprintf("v%d", i)))
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		st := db.StatsSnapshot()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopen and fingerprint the recovered state.
		db2 := mustOpenDir(t, dir, ssidb.Options{CheckpointBytes: -1})
		defer db2.Close()
		var fp bytes.Buffer
		if err := db2.Run(ssidb.SnapshotIsolation, func(tx *ssidb.Txn) error {
			fp.Reset()
			return tx.Scan("t", nil, nil, func(k, v []byte) bool {
				fmt.Fprintf(&fp, "%s=%s;", k, v)
				return true
			})
		}); err != nil {
			t.Fatal(err)
		}
		st2 := db2.StatsSnapshot()
		if st2.RecoveryReplayed != st.WALAppends {
			t.Fatalf("replayed %d records, appended %d", st2.RecoveryReplayed, st.WALAppends)
		}
		return st, fp.String()
	}

	stA, fpA := run(1, 1)
	stB, fpB := run(64, 8)
	if stA.WALAppends != stB.WALAppends {
		t.Fatalf("WALAppends diverge across shard counts: %d vs %d", stA.WALAppends, stB.WALAppends)
	}
	if fpA != fpB {
		t.Fatalf("recovered state diverges across shard counts:\n%s\nvs\n%s", fpA, fpB)
	}
}
