package ssidb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ssi/internal/raceflag"
	"ssi/internal/wal"
)

// dumpTables reads every table of db at one snapshot: name → key → value. A
// table with no live row is left out: neither the log nor an image keeps one.
func dumpTables(t *testing.T, db *DB) map[string]map[string]string {
	t.Helper()
	out := map[string]map[string]string{}
	err := db.Run(SnapshotIsolation, func(tx *Txn) error {
		for name := range *db.tables.Load() {
			rows := map[string]string{}
			if err := tx.Scan(name, nil, nil, func(k, v []byte) bool {
				rows[string(k)] = string(v)
				return true
			}); err != nil {
				return err
			}
			if len(rows) > 0 {
				out[name] = rows
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameTables(t *testing.T, what string, got, want map[string]map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tables, want %d", what, len(got), len(want))
	}
	for name, rows := range want {
		g, ok := got[name]
		if !ok || len(g) != len(rows) {
			t.Fatalf("%s: table %q has %d rows (present %v), want %d", what, name, len(g), ok, len(rows))
		}
		for k, v := range rows {
			if g[k] != v {
				t.Fatalf("%s: %s/%s = %q, want %q", what, name, k, g[k], v)
			}
		}
	}
}

// ckptFrame is one frame of a checkpoint file: its offset, its ts and its
// payload.
type ckptFrame struct {
	off     int
	ts      uint64
	payload []byte
}

// readFrames splits the checkpoint file of dir into its frames (crc32c(4) |
// len(4) | ts(8) | payload), the empty-payload end frame last.
func readFrames(t *testing.T, dir string) (data []byte, frames []ckptFrame) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "CHECKPOINT"))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off+4:]))
		frames = append(frames, ckptFrame{off, binary.LittleEndian.Uint64(data[off+8:]), data[off+16 : off+16+n]})
		off += 16 + n
	}
	if len(frames) == 0 || len(frames[len(frames)-1].payload) != 0 {
		t.Fatalf("checkpoint of %d frames has no end frame", len(frames))
	}
	return data, frames
}

// appendFrame appends payload to buf as one checkpoint or log frame at ts.
func appendFrame(buf []byte, ts uint64, payload []byte) []byte {
	hdr := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	hdr = binary.LittleEndian.AppendUint64(hdr, ts)
	crc := crc32.Update(crc32.Checksum(hdr, crc32.MakeTable(crc32.Castagnoli)), crc32.MakeTable(crc32.Castagnoli), payload)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return append(append(buf, hdr...), payload...)
}

// emptyTable makes table name by its first use, a transaction that writes its
// only row and deletes it again.
func emptyTable(t *testing.T, db *DB, name string) {
	t.Helper()
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
		if err := tx.Put(name, []byte("k"), []byte("v")); err != nil {
			return err
		}
		return tx.Delete(name, []byte("k"))
	}); err != nil {
		t.Fatal(err)
	}
}

// loadChunkedTables fills three tables whose images each span several chunks
// (values up to 400 bytes, every seventh key deleted again) and makes one
// empty table.
func loadChunkedTables(t *testing.T, db *DB) {
	t.Helper()
	emptyTable(t, db, "empty")
	for ti, name := range []string{"alpha", "beta", "gamma"} {
		for lo := 0; lo < 1500; lo += 250 {
			if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
				for i := lo; i < lo+250; i++ {
					key := []byte(fmt.Sprintf("%s-%05d", name, i))
					val := bytes.Repeat([]byte{byte('a' + i%26)}, 100+(i*37+ti)%300)
					if err := tx.Put(name, key, val); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
			for i := 0; i < 1500; i += 7 {
				if err := tx.Delete(name, []byte(fmt.Sprintf("%s-%05d", name, i))); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointChunkedRecovery: an image whose tables span several chunks
// recovers row for row from the checkpoint alone. Every chunk holds rows of
// one table and nothing else, and a table with no live row writes no chunk. A
// checkpoint is published whole, so an image that is not exactly whole frames
// of one ts, each consumed exactly and closed by the end frame, fails OpenDir
// with ErrCorruptCheckpoint — as do the earlier SSICKPT2 layout and an image
// whose chunks open with a table declaration, which are not read.
func TestCheckpointChunkedRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, Options{SegmentBytes: 64 << 10, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	loadChunkedTables(t, db)
	want := dumpTables(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	image, frames := readFrames(t, dir)
	chunks := map[string][]ckptFrame{} // table → its chunk frames, by the table of each one's first row
	for _, f := range frames[:len(frames)-1] {
		if len(f.payload) == 0 {
			t.Fatalf("empty chunk frame at %d, before the end frame", f.off)
		}
		var name string
		if err := decodeRedo(f.payload, func(table, key, val []byte, flags byte) error {
			if flags&^redoTombstone != 0 {
				t.Fatalf("chunk at %d holds an entry of %s with flags %#x, not a row", f.off, table, flags)
			}
			if name == "" {
				name = string(table)
				chunks[name] = append(chunks[name], f)
			}
			if string(table) != name {
				t.Fatalf("chunk at %d of table %s holds a row of %s", f.off, name, table)
			}
			return nil
		}); err != nil {
			t.Fatalf("chunk at %d: %v", f.off, err)
		}
	}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if len(chunks[name]) < 3 {
			t.Fatalf("table %s spans %d chunks, want several", name, len(chunks[name]))
		}
	}
	if c := chunks["empty"]; len(c) != 0 {
		t.Fatalf("table without a live row: %d chunks, want none", len(c))
	}

	db, err = OpenDir(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st := db.StatsSnapshot(); st.RecoveryReplayed != 0 {
		t.Fatalf("replayed %d log records; the image alone should hold every row", st.RecoveryReplayed)
	}
	sameTables(t, "reopened", dumpTables(t, db), want)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	cp := func(b []byte) []byte { return append([]byte(nil), b...) }
	last := chunks["gamma"][len(chunks["gamma"])-1]
	end := last.off + 16 + len(last.payload)
	second := frames[1]
	short := appendFrame(cp(image[:last.off]), last.ts, last.payload[:len(last.payload)-1])
	flipped := cp(image)
	flipped[second.off+16+3] ^= 0x01
	mixed := appendFrame(nil, frames[0].ts-1, frames[0].payload) // a later ts would also regress at the next frame
	older := append([]byte("SSICKPT2"), image[8:16]...)          // magic | ts | payload | payloadLen | crc32c
	payload := binary.LittleEndian.AppendUint32(nil, 1)
	payload = append(binary.LittleEndian.AppendUint16(payload, 1), 'a')
	payload = binary.LittleEndian.AppendUint32(payload, 64)
	payload = binary.LittleEndian.AppendUint32(payload, 1)
	payload = append(binary.LittleEndian.AppendUint16(payload, 1), 'k')
	payload = append(binary.LittleEndian.AppendUint32(payload, 1), 'v')
	payload = binary.LittleEndian.AppendUint32(payload, 0)
	older = binary.LittleEndian.AppendUint64(append(older, payload...), uint64(len(payload)))
	older = binary.LittleEndian.AppendUint32(older, crc32.Checksum(older[8:], crc32.MakeTable(crc32.Castagnoli)))
	var declared []byte // the chunks as the previous format wrote them: a declaration, then the rows
	for _, f := range frames[:len(frames)-1] {
		decl := appendRedoEntry(nil, "alpha", "", binary.LittleEndian.AppendUint32(nil, 64), 1<<1)
		declared = appendFrame(declared, f.ts, append(decl, f.payload...))
	}
	declared = appendFrame(declared, last.ts, nil)
	for _, c := range []struct {
		what  string
		image []byte
	}{
		{"cut mid-frame", cp(image[:last.off+100])},
		{"chunk frame ending mid-row", append(short, image[end:]...)},
		{"trailing garbage", append(cp(image), 0, 0, 0, 0)},
		{"cut at a frame boundary before the end frame", cp(image[:frames[len(frames)-1].off])},
		{"flipped payload byte", flipped},
		{"frame after the end frame", append(cp(image), image[:second.off]...)},
		{"frame of another ts", append(mixed, image[second.off:]...)},
		{"SSICKPT2 image", older},
		{"chunks opening with a table declaration", declared},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "CHECKPOINT"), c.image, 0o644); err != nil {
			t.Fatal(err)
		}
		if db, err := OpenDir(dir, Options{CheckpointBytes: -1}); !errors.Is(err, wal.ErrCorruptCheckpoint) {
			if err == nil {
				db.Close()
			}
			t.Errorf("%s: OpenDir err = %v, want ErrCorruptCheckpoint", c.what, err)
		}
	}
}

// TestCheckpointAndLogRecoverTheSameState: one history recovered from the log
// alone and from a checkpoint plus a log tail gives the same rows — the image
// and the log are the same redo records applied through the same path.
func TestCheckpointAndLogRecoverTheSameState(t *testing.T) {
	opts := Options{CheckpointBytes: -1}
	run := func(db *DB, fn func(tx *Txn) error) {
		t.Helper()
		if err := db.Run(SnapshotIsolation, fn); err != nil {
			t.Fatal(err)
		}
	}
	history := func(db *DB) {
		emptyTable(t, db, "empty")
		for i := 0; i < 300; i++ {
			run(db, func(tx *Txn) error {
				if err := tx.Put("many", []byte(fmt.Sprintf("n%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
					return err
				}
				return tx.Put("hot", []byte(fmt.Sprintf("i%04d", i%50)), []byte(fmt.Sprintf("w%d", i)))
			})
		}
		for i := 0; i < 300; i += 3 {
			run(db, func(tx *Txn) error { return tx.Delete("many", []byte(fmt.Sprintf("n%04d", i))) })
		}
		run(db, func(tx *Txn) error { // re-writes within one transaction: the last one wins
			for _, step := range []struct {
				key, val string
				del      bool
			}{{"a", "1", false}, {"a", "2", false}, {"b", "1", false}, {"b", "", true}, {"n0000", "back", false}, {"n0001", "", true}, {"n0001", "again", false}} {
				var err error
				if step.del {
					err = tx.Delete("rewritten", []byte(step.key))
				} else {
					err = tx.Put("rewritten", []byte(step.key), []byte(step.val))
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
	}
	const tailLen = 25
	tail := func(db *DB) {
		for i := 0; i < tailLen; i++ {
			run(db, func(tx *Txn) error {
				if i%5 == 4 {
					return tx.Delete("hot", []byte(fmt.Sprintf("i%04d", i)))
				}
				return tx.Put("rewritten", []byte(fmt.Sprintf("tail%02d", i)), []byte("t"))
			})
		}
	}
	reopen := func(dir string) *DB {
		t.Helper()
		db, err := OpenDir(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}

	ckptDir, logDir := t.TempDir(), t.TempDir()
	db := reopen(ckptDir)
	history(db)
	copyFiles(t, ckptDir, logDir) // every commit has waited for its record
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tail(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = reopen(logDir)
	tail(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	fromCkpt, fromLog := reopen(ckptDir), reopen(logDir)
	defer fromCkpt.Close()
	defer fromLog.Close()
	if _, err := os.Stat(filepath.Join(logDir, "CHECKPOINT")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the log-only directory holds a checkpoint: %v", err)
	}
	if got := fromCkpt.StatsSnapshot().RecoveryReplayed; got != tailLen {
		t.Fatalf("checkpointed directory replayed %d log records, want the %d of the tail", got, tailLen)
	}
	want := dumpTables(t, fromLog)
	if len(want["empty"]) != 0 || len(want["rewritten"]) == 0 || len(want["many"]) != 200 {
		t.Fatalf("log-only recovery: %d tables, rewritten %d rows, many %d", len(want), len(want["rewritten"]), len(want["many"]))
	}
	sameTables(t, "checkpoint and tail vs log alone", dumpTables(t, fromCkpt), want)
}

// TestRowEntryFormatReplays: a log segment of row entries framed and encoded
// as earlier releases wrote them (u16 tableLen | table | u16 keyLen | key |
// u8 flags | u32 valLen | val, flags bit0 a tombstone) still replays.
func TestRowEntryFormatReplays(t *testing.T) {
	entry := func(buf []byte, table, key, val string, flags byte) []byte {
		buf = append(binary.LittleEndian.AppendUint16(buf, uint16(len(table))), table...)
		buf = append(binary.LittleEndian.AppendUint16(buf, uint16(len(key))), key...)
		buf = binary.LittleEndian.AppendUint32(append(buf, flags), uint32(len(val)))
		return append(buf, val...)
	}
	var seg []byte
	seg = appendFrame(seg, 3, entry(entry(nil, "t", "a", "1", 0), "u", "x", "9", 0))
	seg = appendFrame(seg, 5, entry(entry(nil, "t", "b", "2", 0), "t", "a", "", 1))
	seg = appendFrame(seg, 8, entry(entry(nil, "t", "b", "3", 0), "t", "c", "4", 0))
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDir(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.StatsSnapshot().RecoveryReplayed; got != 3 {
		t.Fatalf("replayed %d records, want 3", got)
	}
	sameTables(t, "replayed", dumpTables(t, db), map[string]map[string]string{"t": {"b": "3", "c": "4"}, "u": {"x": "9"}})
}

// TestLoggedDeclarationRefused: a log record that opens with a table
// declaration, the entry earlier releases logged for a table created with an
// explicit page capacity, fails OpenDir as a malformed record: it is not
// skipped, and the row after it in the record is not applied either.
func TestLoggedDeclarationRefused(t *testing.T) {
	decl := appendRedoEntry(nil, "t", "", binary.LittleEndian.AppendUint32(nil, 8), 1<<1)
	seg := appendFrame(nil, 3, appendRedoEntry(nil, "t", "a", []byte("1"), 0))
	seg = appendFrame(seg, 5, appendRedoEntry(decl, "t", "b", []byte("2"), 0))
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := OpenDir(dir, Options{CheckpointBytes: -1}); !errors.Is(err, errBadRedo) {
		if err == nil {
			db.Close()
		}
		t.Fatalf("OpenDir over a logged declaration: err = %v, want %v", err, errBadRedo)
	}
}

// TestPartialCheckpointTmpIgnored: a crash in the middle of streaming an image
// leaves a partial CHECKPOINT.tmp beside the published CHECKPOINT. OpenDir
// recovers exactly what it recovers without it — the previous checkpoint plus
// the log — and the next checkpoint overwrites the temporary file.
func TestPartialCheckpointTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 64 << 10, CheckpointBytes: -1}
	db, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	loadChunkedTables(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ { // log tail after the checkpoint
		if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
			return tx.Put("alpha", []byte(fmt.Sprintf("alpha-%05d", i*3)), []byte(fmt.Sprintf("tail-%d", i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpTables(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// What a crash mid-stream leaves: a prefix of a newer image. The newer
	// image is written in a copy of the directory.
	newer := t.TempDir()
	copyFiles(t, dir, newer)
	ndb, err := OpenDir(newer, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ndb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ndb.Close()
	full, err := os.ReadFile(filepath.Join(newer, "CHECKPOINT"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "CHECKPOINT.tmp")
	if err := os.WriteFile(tmp, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = OpenDir(dir, opts)
	if err != nil {
		t.Fatalf("OpenDir beside a partial CHECKPOINT.tmp: %v", err)
	}
	if st := db.StatsSnapshot(); st.RecoveryReplayed != 40 {
		t.Fatalf("replayed %d log records, want the 40 after the published checkpoint", st.RecoveryReplayed)
	}
	sameTables(t, "recovered beside a partial image", dumpTables(t, db), want)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("CHECKPOINT.tmp survived the next checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if st := db.StatsSnapshot(); st.RecoveryReplayed != 0 {
		t.Fatalf("replayed %d log records after the new checkpoint, want 0", st.RecoveryReplayed)
	}
	sameTables(t, "recovered from the new checkpoint", dumpTables(t, db), want)
}

func copyFiles(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointAllocBudget: what one Checkpoint allocates does not grow with
// the database. Its image streams through one chunk buffer and the file
// writer's buffer, so ten times the rows cost the same (building the image
// in one slice allocated several times its size).
func TestCheckpointAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under -race; the budgets assume it does not")
	}
	checkpointBytes := func(rows int) uint64 {
		db, err := OpenDir(t.TempDir(), Options{CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for lo := 0; lo < rows; lo += 1000 {
			if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
				for i := lo; i < lo+1000; i++ {
					if err := tx.Put("t", []byte(fmt.Sprintf("key-%07d", i)), []byte("value-0123456789")); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := checkpointBytes(10_000), checkpointBytes(100_000)
	t.Logf("Checkpoint allocates %d B at 10 000 rows, %d B at 100 000", small, large)
	if large > small+256<<10 {
		t.Errorf("Checkpoint of 100 000 rows allocates %d B, of 10 000 rows %d B: more than 256 KiB apart", large, small)
	}
}
