package ssidb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ssi/internal/raceflag"
	"ssi/internal/wal"
)

// dumpTables reads every table of db at one snapshot: name → key → value.
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
			out[name] = rows
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

// imageChunks walks a checkpoint image and returns, per table, the payload
// offset of each chunk's row count and the number of chunks.
func imageChunks(t *testing.T, image []byte) (offsets map[string][]int) {
	t.Helper()
	offsets = map[string][]int{}
	off := 4
	for range binary.LittleEndian.Uint32(image) {
		nl := int(binary.LittleEndian.Uint16(image[off:]))
		name := string(image[off+2 : off+2+nl])
		off += 2 + nl + 4
		offsets[name] = []int{}
		for {
			n := binary.LittleEndian.Uint32(image[off:])
			if n == 0 {
				off += 4
				break
			}
			offsets[name] = append(offsets[name], off)
			off += 4
			for range n {
				off += 2 + int(binary.LittleEndian.Uint16(image[off:]))
				off += 4 + int(binary.LittleEndian.Uint32(image[off:]))
			}
		}
	}
	if off != len(image) {
		t.Fatalf("image walk ended at %d of %d bytes", off, len(image))
	}
	return offsets
}

// loadChunkedTables fills three tables whose images each span several chunks
// (values up to 400 bytes, every seventh key deleted again) and creates one
// empty table.
func loadChunkedTables(t *testing.T, db *DB) {
	t.Helper()
	db.CreateTable("empty", 8)
	for ti, name := range []string{"alpha", "beta", "gamma"} {
		db.CreateTable(name, 16*(ti+1))
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
// recovers row for row — and with each table's page capacity, the empty table
// included — from the checkpoint alone; an image that is not consumed exactly
// (a truncated chunk, a chunk claiming one row fewer than it holds, trailing
// bytes) fails OpenDir with ErrCorruptCheckpoint.
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
	ts, image, ok, err := wal.ReadCheckpoint(dir)
	if err != nil || !ok {
		t.Fatalf("ReadCheckpoint: %v %v", ok, err)
	}
	chunks := imageChunks(t, image)
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if len(chunks[name]) < 3 {
			t.Fatalf("table %s spans %d chunks, want several", name, len(chunks[name]))
		}
	}
	if c, ok := chunks["empty"]; !ok || len(c) != 0 {
		t.Fatalf("empty table: %d chunks (present %v)", len(c), ok)
	}

	db, err = OpenDir(dir, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st := db.StatsSnapshot(); st.RecoveryReplayed != 0 {
		t.Fatalf("replayed %d log records; the image alone should hold every row", st.RecoveryReplayed)
	}
	sameTables(t, "reopened", dumpTables(t, db), want)
	for name, pmk := range map[string]int{"empty": 8, "alpha": 16, "beta": 32, "gamma": 48} {
		if tb := (*db.tables.Load())[name]; tb == nil || tb.pageMaxKeys != pmk {
			t.Fatalf("table %s after reopen: %+v, want pageMaxKeys %d", name, tb, pmk)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	last := chunks["gamma"][len(chunks["gamma"])-1]
	for _, c := range []struct {
		what string
		mut  func([]byte) []byte
	}{
		{"truncated chunk", func(p []byte) []byte { return p[:last+100] }},
		{"chunk claiming one row fewer", func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[last:], binary.LittleEndian.Uint32(p[last:])-1)
			return p
		}},
		{"trailing garbage", func(p []byte) []byte { return append(p, 0, 0, 0, 0) }},
	} {
		bad := t.TempDir()
		w, err := wal.CreateCheckpoint(bad, ts)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(c.mut(append([]byte(nil), image...)))
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if db, err := OpenDir(bad, Options{CheckpointBytes: -1}); !errors.Is(err, wal.ErrCorruptCheckpoint) {
			if err == nil {
				db.Close()
			}
			t.Errorf("%s: OpenDir err = %v, want ErrCorruptCheckpoint", c.what, err)
		}
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
