package ssidb

import (
	"encoding/binary"
	"fmt"
	"io"

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
// installed, so the replayed commit takes no locks and appends nothing; its
// write set retires like a live commit's, pruning what it superseded.
func (db *DB) applyRedo(payload []byte) error {
	t := db.mgr.BeginTx(SnapshotIsolation, false)
	s := txnScratchPool.Get().(*txnScratch)
	err := decodeRedo(payload, func(table string, key, val []byte, tombstone bool) error {
		tb := db.getOrCreateTable(table, 0)
		// The store retains value slices (not keys); payload is the replay
		// buffer.
		var v []byte
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
// Image layout: u32 numTables, then per table
//
//	u16 nameLen | name | u32 pageMaxKeys | chunk* | u32 0
//	chunk: u32 n (> 0) | n rows: u16 keyLen | key | u32 valLen | val
//
// Rows are the live values visible at the checkpoint snapshot; deleted keys
// are simply absent (a post-snapshot delete is replayed from the log as a
// tombstone, which supersedes the loaded value). A chunk is what one scan of
// the snapshot fits into ckptChunkBytes, so writing an image takes one
// buffer of that size whatever the database's size.

// ckptChunkBytes is the size of a chunk's row buffer: a scan stops once the
// next row would not fit (a row larger than it makes a chunk of its own).
const ckptChunkBytes = 64 << 10

// writeImage streams the image of every table at snap into w, chunk by chunk.
func (db *DB) writeImage(w io.Writer, snapTxn *core.Txn, snap core.TS) error {
	tables := *db.tables.Load()
	buf := make([]byte, 0, ckptChunkBytes)
	var from []byte // where the next chunk's scan resumes
	write := func(p []byte) error {
		_, err := w.Write(p)
		return err
	}
	if err := write(binary.LittleEndian.AppendUint32(buf, uint32(len(tables)))); err != nil {
		return err
	}
	for name, tb := range tables {
		buf = binary.LittleEndian.AppendUint16(buf[:0], uint16(len(name)))
		buf = append(buf, name...)
		if err := write(binary.LittleEndian.AppendUint32(buf, uint32(tb.pageMaxKeys))); err != nil {
			return err
		}
		from = from[:0]
		for {
			buf = append(buf[:0], 0, 0, 0, 0) // row count, patched below
			n, full := uint32(0), false
			tb.data.Scan(snapTxn, snap, from, func(it mvcc.ScanItem) bool {
				if !it.Found {
					return true
				}
				if n > 0 && len(buf)+6+len(it.Key)+len(it.Value) > ckptChunkBytes {
					from, full = append(from[:0], it.Key...), true
					return false
				}
				buf = binary.LittleEndian.AppendUint16(buf, uint16(len(it.Key)))
				buf = append(buf, it.Key...)
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(it.Value)))
				buf = append(buf, it.Value...)
				n++
				return true
			})
			if n == 0 {
				break
			}
			// Scan has returned, so no partition latch is held: no checkpoint
			// I/O ever happens under one. The next scan resumes at the first
			// row this chunk had no room for, on the same snapshot.
			binary.LittleEndian.PutUint32(buf, n)
			if err := write(buf); err != nil {
				return err
			}
			if !full {
				break
			}
		}
		if err := write(binary.LittleEndian.AppendUint32(buf[:0], 0)); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) loadCheckpoint(image []byte) error {
	t := db.mgr.BeginTx(SnapshotIsolation, false)
	if err := db.loadCheckpointInto(t, image); err != nil {
		db.mgr.Abort(t)
		return err
	}
	if _, err := db.mgr.CommitPrepare(t); err != nil {
		return err
	}
	db.mgr.Finish(t, false) // an image only inserts: nothing superseded to prune
	return nil
}

// imageReader consumes a checkpoint image front to back. A read past the end
// sets err, and every read after that returns zeros — a count of 0 ends the
// loop reading it — so a caller checks err once per row.
type imageReader struct {
	b   []byte
	err error
}

func (r *imageReader) bytes(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.err, r.b = wal.ErrCorruptCheckpoint, nil
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *imageReader) u16() int {
	if p := r.bytes(2); r.err == nil {
		return int(binary.LittleEndian.Uint16(p))
	}
	return 0
}

func (r *imageReader) u32() uint32 {
	if p := r.bytes(4); r.err == nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// loadCheckpointInto writes every row of image through t. The image must be
// consumed exactly: a truncated chunk and bytes after the last table are
// both ErrCorruptCheckpoint.
func (db *DB) loadCheckpointInto(t *core.Txn, image []byte) error {
	r := imageReader{b: image}
	for tables := r.u32(); tables > 0; tables-- {
		name := string(r.bytes(r.u16()))
		pageMaxKeys := int(r.u32())
		if r.err != nil {
			break
		}
		tb := db.getOrCreateTable(name, pageMaxKeys)
		for n := r.u32(); n > 0; n = r.u32() {
			for ; n > 0; n-- {
				key := r.bytes(r.u16())
				val := r.bytes(int(r.u32()))
				if r.err != nil {
					break
				}
				tb.data.Write(t, key, append([]byte(nil), val...), false, nil)
			}
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = wal.ErrCorruptCheckpoint
	}
	return r.err
}

// Checkpoint writes a fuzzy checkpoint: an image of every table's state at
// a fresh snapshot, streamed chunk by chunk into a temporary file and
// published atomically (fsync + rename), then truncates WAL segments wholly
// covered by it. Concurrent transactions keep running throughout — the image
// is a sequence of ordinary snapshot scans. It is a no-op for non-durable
// databases.
func (db *DB) Checkpoint() error {
	if db.dir == "" {
		return nil
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	base := db.log.BytesAppended()
	t := db.mgr.BeginTx(SnapshotIsolation, true)
	snap := db.mgr.AssignSnapshot(t)
	ck, err := wal.CreateCheckpoint(db.dir, uint64(snap))
	if err == nil {
		defer ck.Abort()
		err = db.writeImage(ck, t, snap)
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
