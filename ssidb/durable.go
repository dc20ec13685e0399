package ssidb

import (
	"encoding/binary"
	"fmt"

	"ssi/internal/core"
	"ssi/internal/mvcc"
	"ssi/internal/wal"
)

// This file is the engine side of durability: redo-record capture on the
// write path, the commit hook that sequences records into the WAL at the
// tsMu commit point, recovery (checkpoint image + log roll-forward) and
// fuzzy checkpoints with segment truncation.
//
// The one invariant everything here leans on: the WAL append happens inside
// core's commit-serialization mutex, immediately after the commit timestamp
// is published, so log order equals commit order and recovery is a single
// in-order pass — no undo, no LSN comparisons per key, later records simply
// overwrite earlier ones.

// commitState is the per-transaction durability slot Commit hands to the
// commit hook through core.Manager.CommitPrepareWith: the redo payload going
// in, the record's LSN (or the append's refusal) coming back out.
type commitState struct {
	redo []byte
	lsn  wal.LSN
	err  error // Append contract error: record not queued, commit not durable
}

// walCommitHook runs inside stampCommitted, under tsMu. It must only
// buffer: the WAL's Append takes a short mutex and copies bytes, the fsync
// happens later in Commit, outside every engine lock. An Append refusal
// (closed log, timestamp regression) cannot unwind the already-published
// commit, so it is carried back through the commit state for Commit to
// surface as this transaction's error.
func (db *DB) walCommitHook(_ *core.Txn, ct core.TS, slot any) {
	cs, _ := slot.(*commitState)
	if cs == nil {
		return // replay transaction, or a commit that needs no record
	}
	cs.lsn, cs.err = db.log.Append(uint64(ct), cs.redo)
}

// shouldLog reports whether this transaction's commit appends a WAL record.
// With a real log every read-write commit is logged; read-only commits have
// nothing to redo and skip the fsync wait. In simulated-latency mode
// (FlushLatency, no Dir) every commit is logged, matching the Berkeley DB
// behaviour the thesis figures were measured against — a commit record is
// written and flushed even for queries.
func (tx *Txn) shouldLog() bool {
	if tx.db.log == nil {
		return false
	}
	return len(tx.s.commit.redo) > 0 || tx.db.dir == ""
}

// --- redo record encoding ---
//
// A record is the concatenation of this transaction's writes in statement
// order, each entry:
//
//	u16 tableLen | table | u16 keyLen | key | u8 flags | u32 valLen | val
//
// flags bit0 = tombstone. Entries are decoded until the payload is
// exhausted; re-writes of the same key within one transaction appear twice
// and the later entry wins, same as execution order.

const redoTombstone = 1

func appendRedoEntry(buf []byte, table string, key, val []byte, tombstone bool) []byte {
	var u16 [2]byte
	var u32 [4]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(table)))
	buf = append(buf, u16[:]...)
	buf = append(buf, table...)
	binary.LittleEndian.PutUint16(u16[:], uint16(len(key)))
	buf = append(buf, u16[:]...)
	buf = append(buf, key...)
	var flags byte
	if tombstone {
		flags |= redoTombstone
	}
	buf = append(buf, flags)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(val)))
	buf = append(buf, u32[:]...)
	buf = append(buf, val...)
	return buf
}

var errBadRedo = fmt.Errorf("ssi: malformed redo record")

func decodeRedo(payload []byte, fn func(table string, key, val []byte, tombstone bool) error) error {
	for len(payload) > 0 {
		if len(payload) < 2 {
			return errBadRedo
		}
		tl := int(binary.LittleEndian.Uint16(payload))
		payload = payload[2:]
		if len(payload) < tl+2 {
			return errBadRedo
		}
		table := string(payload[:tl])
		payload = payload[tl:]
		kl := int(binary.LittleEndian.Uint16(payload))
		payload = payload[2:]
		if len(payload) < kl+5 {
			return errBadRedo
		}
		key := payload[:kl]
		payload = payload[kl:]
		flags := payload[0]
		vl := int(binary.LittleEndian.Uint32(payload[1:5]))
		payload = payload[5:]
		if len(payload) < vl {
			return errBadRedo
		}
		val := payload[:vl]
		payload = payload[vl:]
		if err := fn(table, key, val, flags&redoTombstone != 0); err != nil {
			return err
		}
	}
	return nil
}

// --- recovery ---

// recover rebuilds in-memory state from the checkpoint image and the redo
// log, in that order, then re-seeds the clock so every future timestamp is
// strictly greater than anything in the retained log — which is what keeps
// the WAL's monotone-timestamp invariant true across restarts and makes the
// next checkpoint's skip rule (ts ≤ checkpoint TS) sound.
func (db *DB) recover() error {
	ckptTS, image, haveCkpt, err := wal.ReadCheckpoint(db.dir)
	if err != nil {
		return err
	}
	if haveCkpt {
		if err := db.loadCheckpoint(image); err != nil {
			return err
		}
	}
	var replayed uint64
	err = db.log.Replay(func(ts uint64, payload []byte) error {
		if ts <= ckptTS {
			return nil // covered by the checkpoint image
		}
		if len(payload) == 0 {
			return nil
		}
		if err := db.applyRedo(payload); err != nil {
			return err
		}
		replayed++
		return nil
	})
	if err != nil {
		return err
	}
	db.recovered.Store(replayed)
	hi := ckptTS
	if lts := db.log.LastTS(); lts > hi {
		hi = lts
	}
	db.mgr.AdvanceClock(core.TS(hi))
	return nil
}

// applyRedo replays one committed transaction's writes as a fresh
// transaction. Recovery is single-threaded and the commit hook is not yet
// installed, so the replayed commit takes no locks and appends nothing.
func (db *DB) applyRedo(payload []byte) error {
	t := db.mgr.BeginTx(SnapshotIsolation, false)
	err := decodeRedo(payload, func(table string, key, val []byte, tombstone bool) error {
		tb := db.getOrCreateTable(table, 0)
		// The store retains value slices (not keys); payload is the replay
		// buffer.
		var v []byte
		if !tombstone {
			v = append([]byte(nil), val...)
		}
		tb.data.Write(t, key, v, tombstone, nil)
		return nil
	})
	if err != nil {
		db.afterCleanup(db.mgr.Abort(t))
		return err
	}
	if _, err := db.mgr.CommitPrepare(t); err != nil {
		return err
	}
	db.afterCleanup(db.mgr.Finish(t, false))
	return nil
}

// --- checkpoint ---
//
// Image layout: u32 numTables, then per table
//
//	u16 nameLen | name | u32 pageMaxKeys | u32 numRows |
//	rows: u16 keyLen | key | u32 valLen | val
//
// Rows are the live values visible at the checkpoint snapshot; deleted keys
// are simply absent (a post-snapshot delete is replayed from the log as a
// tombstone, which supersedes the loaded value).

func (db *DB) buildCheckpointImage(snapTxn *core.Txn, snap core.TS) []byte {
	tables := *db.tables.Load()
	var buf []byte
	var u16 [2]byte
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(tables)))
	buf = append(buf, u32[:]...)
	for name, tb := range tables {
		binary.LittleEndian.PutUint16(u16[:], uint16(len(name)))
		buf = append(buf, u16[:]...)
		buf = append(buf, name...)
		binary.LittleEndian.PutUint32(u32[:], uint32(tb.pageMaxKeys))
		buf = append(buf, u32[:]...)
		countAt := len(buf)
		buf = append(buf, 0, 0, 0, 0) // row count, patched below
		rows := uint32(0)
		tb.data.Scan(snapTxn, snap, nil, func(it mvcc.ScanItem) bool {
			if !it.Found {
				return true
			}
			binary.LittleEndian.PutUint16(u16[:], uint16(len(it.Key)))
			buf = append(buf, u16[:]...)
			buf = append(buf, it.Key...)
			binary.LittleEndian.PutUint32(u32[:], uint32(len(it.Value)))
			buf = append(buf, u32[:]...)
			buf = append(buf, it.Value...)
			rows++
			return true
		})
		binary.LittleEndian.PutUint32(buf[countAt:countAt+4], rows)
	}
	return buf
}

func (db *DB) loadCheckpoint(image []byte) error {
	t := db.mgr.BeginTx(SnapshotIsolation, false)
	if err := db.loadCheckpointInto(t, image); err != nil {
		db.afterCleanup(db.mgr.Abort(t))
		return err
	}
	if _, err := db.mgr.CommitPrepare(t); err != nil {
		return err
	}
	db.afterCleanup(db.mgr.Finish(t, false))
	return nil
}

func (db *DB) loadCheckpointInto(t *core.Txn, image []byte) error {
	if len(image) < 4 {
		return wal.ErrCorruptCheckpoint
	}
	numTables := binary.LittleEndian.Uint32(image)
	image = image[4:]
	for i := uint32(0); i < numTables; i++ {
		if len(image) < 2 {
			return wal.ErrCorruptCheckpoint
		}
		nl := int(binary.LittleEndian.Uint16(image))
		image = image[2:]
		if len(image) < nl+8 {
			return wal.ErrCorruptCheckpoint
		}
		name := string(image[:nl])
		image = image[nl:]
		pageMaxKeys := int(binary.LittleEndian.Uint32(image))
		rows := binary.LittleEndian.Uint32(image[4:8])
		image = image[8:]
		tb := db.getOrCreateTable(name, pageMaxKeys)
		for r := uint32(0); r < rows; r++ {
			if len(image) < 2 {
				return wal.ErrCorruptCheckpoint
			}
			kl := int(binary.LittleEndian.Uint16(image))
			image = image[2:]
			if len(image) < kl+4 {
				return wal.ErrCorruptCheckpoint
			}
			key := image[:kl]
			image = image[kl:]
			vl := int(binary.LittleEndian.Uint32(image))
			image = image[4:]
			if len(image) < vl {
				return wal.ErrCorruptCheckpoint
			}
			val := append([]byte(nil), image[:vl]...)
			image = image[vl:]
			tb.data.Write(t, key, val, false, nil)
		}
	}
	return nil
}

// Checkpoint writes a fuzzy checkpoint: an image of every table's state at
// a fresh snapshot, published atomically (temp file + fsync + rename), then
// truncates WAL segments wholly covered by it. Concurrent transactions keep
// running throughout — the image is an ordinary snapshot scan. It is a
// no-op for non-durable databases.
func (db *DB) Checkpoint() error {
	if db.dir == "" {
		return nil
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	base := db.log.StatsSnapshot().BytesAppended
	t := db.mgr.BeginTx(SnapshotIsolation, true)
	snap := db.mgr.AssignSnapshot(t)
	image := db.buildCheckpointImage(t, snap)
	db.afterCleanup(db.mgr.Abort(t)) // probe ran no statements; core abort erases it
	if err := wal.WriteCheckpoint(db.dir, uint64(snap), image); err != nil {
		return err
	}
	db.ckptBase.Store(base)
	db.checkpoints.Add(1)
	return db.log.TruncateBelow(uint64(snap))
}

// maybeCheckpoint starts an asynchronous checkpoint if enough log bytes
// accumulated since the last one. Single-flight; called from the watermark
// hook.
func (db *DB) maybeCheckpoint() {
	if db.dir == "" || db.opts.CheckpointBytes < 0 {
		return
	}
	if db.log.StatsSnapshot().BytesAppended-db.ckptBase.Load() < uint64(db.opts.CheckpointBytes) {
		return
	}
	if !db.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer db.ckptBusy.Store(false)
		db.Checkpoint() // best effort; the next trigger retries on error
	}()
}
