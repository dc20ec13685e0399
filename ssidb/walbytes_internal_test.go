package ssidb

import (
	"encoding/binary"
	"testing"
)

// TestWALBytesPerCommit pins the log bytes one durable commit appends, the
// figure a compact redo encoding (ROADMAP item 8) is to lower. The commit is
// the repository benchmark's kv-uniform transaction: 4 Gets and 2 Puts at
// SerializableSI on a table of rows with 4-byte big-endian keys, as kvmix
// loads them, writing the 1-byte value "w". Its record is one frame, a 16-byte
// header (crc32c, payload length, commit timestamp: 4 + 4 + 8) and the redo
// payload, one entry per write:
//
//	u16 tableLen | table | u16 keyLen | key | u8 flags | u32 valLen | val
//	2          + 5     + 2          + 4   + 1        + 4          + 1   = 19
//
// for the table "kvmix": 16 + 2 × 19 = 54 bytes. A commit that wrote nothing
// appends none, at SI and at SSI.
func TestWALBytesPerCommit(t *testing.T) {
	db, err := OpenDir(t.TempDir(), Options{Detector: DetectorPrecise, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const table, rows = "kvmix", 1000
	key := func(i int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(i)) }
	if err := db.Run(SnapshotIsolation, func(tx *Txn) error {
		for i := range rows {
			if err := tx.Put(table, key(i), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	next := 0
	shape := func(gets, puts int) func(tx *Txn) error {
		return func(tx *Txn) error {
			for range gets {
				next++
				if _, _, err := tx.Get(table, key(next%rows)); err != nil {
					return err
				}
			}
			for range puts {
				next++
				if err := tx.Put(table, key(next%rows), []byte("w")); err != nil {
					return err
				}
			}
			return nil
		}
	}
	const n = 100
	for _, c := range []struct {
		name       string
		iso        Isolation
		gets, puts int
		bytes      uint64
	}{
		{"4 Gets + 2 Puts at SSI", SerializableSI, 4, 2, 54},
		{"4 Gets at SSI", SerializableSI, 4, 0, 0},
		{"4 Gets at SI", SnapshotIsolation, 4, 0, 0},
	} {
		before := db.log.BytesAppended()
		for range n {
			if err := db.Run(c.iso, shape(c.gets, c.puts)); err != nil {
				t.Fatal(err)
			}
		}
		if got := db.log.BytesAppended() - before; got != n*c.bytes {
			t.Errorf("%s: %d WAL bytes over %d commits, want %d each", c.name, got, n, c.bytes)
		}
	}
}
