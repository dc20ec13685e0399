package ssidb

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ssi/internal/core"
	"ssi/internal/mvcc"
	"ssi/internal/wal"
)

// This file is the engine side of durability: redo-record capture on the
// write path, the commit hook that sequences records into the WAL at the
// tsMu commit point, recovery (checkpoint image + log roll-forward, both
// redo records) and fuzzy checkpoints with segment truncation.
//
// The one invariant everything here leans on: the WAL append happens inside
// core's commit-serialization mutex, immediately after the commit timestamp
// is published, so log order equals commit order and recovery is a single
// in-order pass — no undo, no LSN comparisons per key, later records simply
// overwrite earlier ones.

// commitState is the per-transaction durability slot Commit hands to the
// commit hook through core.Manager.CommitPrepareWith: the redo payload going
// in, the record's LSN (or the append's refusal) coming back out. Before the
// commit, lsn holds the log's last LSN as of the transaction's snapshot
// (readPoint), which a commit that appends nothing waits for.
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
	return len(tx.commit.redo) > 0 || tx.db.dir == ""
}

// --- redo record encoding ---
//
// A record is the concatenation of this transaction's writes in statement
// order, each entry:
//
//	u16 tableLen | table | u16 keyLen | key | u8 flags | u32 valLen | val
//
// flags bit0 = tombstone, and no other bit is defined. Entries are decoded
// until the payload is exhausted; re-writes of the same key within one
// transaction appear twice and the later entry wins, same as execution order.
// Every entry is a row a committed writer wrote — a log record's or a
// checkpoint chunk's alike — and replaying one creates its table on first use.

const redoTombstone = 1

// appendRedoEntry takes the key as the write path holds it ([]byte) or as a
// checkpoint scan yields it (string).
func appendRedoEntry[K string | []byte](buf []byte, table string, key K, val []byte, flags byte) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(table)))
	buf = append(buf, table...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
	return append(buf, val...)
}

var errBadRedo = fmt.Errorf("ssi: malformed redo record")

func decodeRedo(payload []byte, fn func(table, key, val []byte, flags byte) error) error {
	for len(payload) > 0 {
		if len(payload) < 2 {
			return errBadRedo
		}
		tl := int(binary.LittleEndian.Uint16(payload))
		payload = payload[2:]
		if len(payload) < tl+2 {
			return errBadRedo
		}
		table := payload[:tl]
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
		if len(payload) < vl || flags&^redoTombstone != 0 {
			return errBadRedo
		}
		val := payload[:vl]
		payload = payload[vl:]
		if err := fn(table, key, val, flags); err != nil {
			return err
		}
	}
	return nil
}

// --- recovery ---

// recover rebuilds in-memory state from the checkpoint image and the redo
// log, in that order and through one path: every frame of either is a redo
// record for applyRedo. It then re-seeds the clock so every future timestamp
// is strictly greater than anything in the retained log — which is what
// keeps the WAL's monotone-timestamp invariant true across restarts and
// makes the next checkpoint's skip rule (ts ≤ checkpoint TS) sound.
func (db *DB) recover() error {
	ckptTS, _, err := wal.ReadCheckpoint(db.dir, func(payload []byte) error {
		if err := db.applyRedo(payload); err != nil {
			return fmt.Errorf("%w: %w", wal.ErrCorruptCheckpoint, err)
		}
		return nil
	})
	if err != nil {
		return err
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

// applyRedo replays one redo record — a committed transaction's writes, or
// a checkpoint chunk — as a fresh transaction. Recovery is single-threaded
// and the commit hook is not yet installed, so the replayed commit takes no
// locks and appends nothing; its write set retires like a live commit's,
// pruning what it superseded.
func (db *DB) applyRedo(payload []byte) error {
	t := db.mgr.BeginTx(SnapshotIsolation, false)
	s := txnScratchPool.Get().(*txnScratch)
	var tb *table // the table of the previous entry: a chunk's rows share one
	err := decodeRedo(payload, func(table, key, val []byte, flags byte) error {
		if tb == nil || tb.name != string(table) {
			tb = db.table(string(table))
		}
		// The store retains value slices (not keys); payload is the replay
		// buffer.
		var v []byte
		tombstone := flags&redoTombstone != 0
		if !tombstone {
			v = append([]byte(nil), val...)
		}
		row, _ := tb.data.Write(t, key, v, tombstone, nil)
		s.writes = append(s.writes, row)
		return nil
	})
	if err != nil {
		s.recycle()
		db.mgr.Abort(t)
		return err
	}
	if _, err := db.mgr.CommitPrepare(t); err != nil {
		return err
	}
	db.mgr.FinishWith(t, false, s)
	return nil
}

// --- checkpoint ---
//
// An image is a checkpoint file (internal/wal) of frames at the checkpoint
// snapshot, each one chunk of one table's live rows at the snapshot as
// ordinary redo row entries; a table with none writes no chunk, for an empty
// frame ends the image. Deleted keys are simply absent (a post-snapshot
// delete is replayed from the log as a tombstone, which supersedes the loaded
// value). A chunk is what one scan of the snapshot fits into the checkpoint
// writer's 64 KiB frame buffer — the scan stops once the next row would not
// fit, and a row larger than it makes a chunk of its own — so writing an
// image takes that one buffer whatever the database's size.

// writeImage streams the image of tables at snap into ck, chunk by chunk.
func (db *DB) writeImage(ck *wal.CheckpointWriter, tables tableMap, snapTxn *core.Txn, snap core.TS) error {
	var from []byte // where the next chunk's scan resumes
	for name, tb := range tables {
		from = from[:0]
		for {
			buf, full := ck.Payload(), false
			tb.data.Scan(snapTxn, snap, from, func(it mvcc.ScanItem) bool {
				if !it.Found {
					return true
				}
				if len(buf) > 0 && len(buf)+9+len(name)+len(it.Key)+len(it.Value) > wal.CheckpointPayloadBytes {
					from, full = append(from[:0], it.Key...), true
					return false
				}
				buf = appendRedoEntry(buf, name, it.Key, it.Value, 0)
				return true
			})
			// Scan has returned, so no partition latch is held: no checkpoint
			// I/O ever happens under one. The next scan resumes at the first
			// row this chunk had no room for, on the same snapshot.
			if len(buf) == 0 {
				break
			}
			if err := ck.Frame(buf); err != nil {
				return err
			}
			if !full {
				break
			}
		}
	}
	return nil
}

// Checkpoint writes a fuzzy checkpoint: an image of every table's state at
// a fresh snapshot, streamed chunk by chunk into a temporary file and
// published atomically (fsync + rename), then truncates WAL segments wholly
// covered by it. Concurrent transactions keep running throughout — the image
// is a sequence of ordinary snapshot scans. It is a no-op for non-durable
// databases, and an error once the database is closed.
func (db *DB) Checkpoint() error {
	if db.dir == "" {
		return nil
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if db.closed {
		return errors.New("ssi: checkpoint of a closed database")
	}
	base := db.log.BytesAppended()
	t := db.mgr.BeginTx(SnapshotIsolation, true)
	// A commit below snap created its tables before it committed, so the map
	// loaded after the snapshot holds every table with a row the image needs.
	snap := db.mgr.AssignSnapshot(t)
	tables := *db.tables.Load()
	ck, err := wal.CreateCheckpoint(db.dir, uint64(snap))
	if err == nil {
		defer ck.Abort()
		err = db.writeImage(ck, tables, t, snap)
	}
	db.mgr.Abort(t) // probe ran no statements; core abort erases it
	if err == nil {
		err = ck.Commit()
	}
	if err != nil {
		return err
	}
	db.armCheckpoint(base)
	db.checkpoints.Add(1)
	return db.log.TruncateBelow(uint64(snap))
}

// armCheckpoint sets the automatic trigger CheckpointBytes of log past base,
// the byte count a checkpoint started at; without automatic checkpoints it
// leaves the trigger at never.
func (db *DB) armCheckpoint(base uint64) {
	if db.opts.CheckpointBytes > 0 {
		db.ckptAt.Store(base + uint64(db.opts.CheckpointBytes))
	}
}

// maybeCheckpoint starts an asynchronous checkpoint once the log has reached
// the armed trigger. Commit calls it after every durable wait: one atomic
// compare, whatever snapshots are held open — a checkpoint takes a fresh
// snapshot of its own. Single-flight.
func (db *DB) maybeCheckpoint() {
	if db.log.BytesAppended() < db.ckptAt.Load() {
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
