// Package wal is the engine's redo log: an append-only sequence of
// CRC-framed commit records split across numbered segment files, made
// durable by group commit.
//
// Group commit is the Berkeley DB / InnoDB design (thesis §4.4): committers
// append their records and then wait for durability; a dedicated flusher
// goroutine optionally lingers for GroupCommitMaxDelay to let committers
// pile on, writes the whole pending batch with one write+sync, publishes
// the new durable LSN, and wakes everyone. One disk sync is amortized over
// every transaction that committed while the previous sync was in flight,
// so durable throughput climbs with MPL instead of collapsing to
// fsyncs-per-second; running the flusher as its own goroutine (rather than
// electing a committer as batch leader) keeps scheduler wakeups off the
// sync critical path, so back-to-back batches run at raw fdatasync cadence.
//
// The caller must append records in commit-timestamp order (the engine holds
// its commit-serialization mutex across Append), which makes recovery a
// straight roll-forward: Open scans segments in order, stops at the first
// torn or corrupt frame, truncates there, and Replay streams the surviving
// prefix.
//
// With no directory configured the log runs against an in-memory null
// device whose Sync is a configurable sleep — the simulated-latency mode the
// thesis figures use to model a 10ms-commit I/O-bound disk.
//
// The commit path reuses its memory: the flusher hands each written batch
// buffer back as the next pending one, so two buffers alternate and a
// steady-state Append + WaitDurable allocates nothing (a buffer a huge batch
// grew past maxKeptBatch is dropped instead of kept).
//
// A checkpoint is a file of the same frames. CreateCheckpoint opens
// CHECKPOINT.tmp and the caller appends the image one Frame at a time, each
// framed exactly as Append frames a log record, with ts the checkpoint's
// snapshot; Commit appends an empty-payload end frame, fsyncs, renames over
// CHECKPOINT and fsyncs the directory. ReadCheckpoint walks the frames with
// the loop that scans a segment. Both files keep one crash contract: a frame
// not wholly written and checksummed is not applied. In the log that is the
// torn tail, cut away; a checkpoint is published only whole, so in it a bad
// frame, a missing end frame, a frame after the end or a frame of another ts
// is ErrCorruptCheckpoint. A crash before the rename leaves only a stale
// CHECKPOINT.tmp, which the next checkpoint truncates and rewrites.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LSN is a log sequence number. Record n has LSN n (first record is 1).
type LSN = uint64

// Append-contract violations. These used to panic; they are returned instead
// so a long-lived server process can report a wedged log as a health problem
// rather than crash mid-commit. Both mean the caller broke the log's
// contract (appending after Close, or out of commit order) — the record was
// NOT queued.
var (
	// ErrClosed reports an Append after Close.
	ErrClosed = errors.New("wal: append on closed log")
	// ErrOutOfOrder reports an Append whose commit timestamp regresses
	// below an earlier record's.
	ErrOutOfOrder = errors.New("wal: commit timestamps out of order")
)

// Frame layout, of log records and checkpoint chunks alike:
// crc32c(4) | payloadLen(4) | commitTS(8) | payload.
// The CRC covers payloadLen, commitTS and the payload.
const frameHeader = 16

// maxRecordBytes bounds a single record so a corrupt length field cannot
// make the scanner attempt a multi-gigabyte read.
const maxRecordBytes = 1 << 28

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configure a Log.
type Options struct {
	// Dir is the log directory. Empty means in-memory mode: records are
	// framed and "written" to a null device that discards them, and Sync is
	// simulated by sleeping SyncDelay. Nothing survives restart.
	Dir string

	// SyncDelay is the synthetic fsync duration for in-memory mode. Ignored
	// when Dir is set (real fsyncs are used).
	SyncDelay time.Duration

	// SegmentBytes rolls the active segment once it exceeds this size.
	// Defaults to 64 MiB.
	SegmentBytes int64

	// GroupCommitMaxDelay is how long the flusher lingers before syncing,
	// letting concurrent committers join the batch. Zero means sync
	// immediately (batching still happens naturally while a sync is in
	// flight).
	GroupCommitMaxDelay time.Duration

	// WrapDevice, if set, wraps every device the log writes to — the null
	// device, and each segment file as the log opens or rolls to it. It is
	// the seam for tests that control what a write or a sync does and when
	// it returns; nil leaves the devices as they are.
	WrapDevice func(Device) Device
}

// groupCommitMaxBatch ends the flusher's linger once this many records are
// pending.
const groupCommitMaxBatch = 256

// maxKeptBatch caps the batch buffer the flusher keeps for reuse: a buffer a
// bulk load's large records grew past it is left to the collector.
const maxKeptBatch = 64 << 10

// Device is where framed bytes go: a real segment file or the null device.
// The flusher is its only writer, and Sync returning nil makes every byte
// written before it durable.
type Device interface {
	io.Writer
	Sync() error
	Close() error
}

type nullDevice struct{ delay time.Duration }

func (d *nullDevice) Write(p []byte) (int, error) { return len(p), nil }
func (d *nullDevice) Sync() error {
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	return nil
}
func (d *nullDevice) Close() error { return nil }

// fileDevice adapts a segment file to the device interface. Sync uses
// datasync (fdatasync on Linux): segments are preallocated to their full
// size at creation, so group-commit appends change neither the file size
// nor its block allocation and a data-only flush is sufficient — the inode
// write a full fsync would add per batch is pure overhead.
type fileDevice struct{ *os.File }

func (d fileDevice) Sync() error { return datasync(d.File) }

type segMeta struct {
	seq    uint64
	path   string
	lastTS uint64 // highest commit TS in the segment (0 if empty)
}

// Log is a group-commit redo log.
type Log struct {
	opts Options

	mu            sync.Mutex
	cond          *sync.Cond // durability waiters; broadcast per published batch
	flushCond     *sync.Cond // wakes the flusher; signaled on append and close
	flusherDone   chan struct{}
	err           error // sticky I/O error; poisons all subsequent waits
	closed        bool
	last          atomic.Uint64 // the last LSN assigned; stored under mu
	durable       atomic.Uint64 // the highest durable LSN; stored under mu
	pending       []byte        // framed records awaiting the next batch
	spare         []byte        // the last batch written, emptied: the next pending
	pendingCount  int
	pendingLastTS uint64
	lastTS        uint64 // highest TS ever appended (monotonicity check)
	waiting       int    // callers blocked in WaitDurable

	active       Device
	activeSeq    uint64
	activeSize   int64
	activeLastTS uint64
	sealed       []segMeta // full segments eligible for truncation

	recovered []segMeta // segments found at Open, in order, for Replay

	appends   atomic.Uint64
	batches   atomic.Uint64
	fsyncs    atomic.Uint64
	bytes     atomic.Uint64
	truncated atomic.Uint64
}

// Open opens (or creates) the log in opts.Dir, validating existing segments
// and truncating any torn tail so the surviving records form a clean prefix
// of commit history. With an empty Dir it returns an in-memory log.
func Open(opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	l := &Log{opts: opts, flusherDone: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	l.flushCond = sync.NewCond(&l.mu)
	if opts.Dir == "" {
		l.active = l.wrap(&nullDevice{delay: opts.SyncDelay})
		go l.flusher()
		return l, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	// Validate each segment in order. The first invalid frame marks the
	// crash point: truncate there and drop everything after it.
	for i, s := range segs {
		validSize, lastTS, torn, err := scanSegment(s.path, nil)
		if err != nil {
			return nil, err
		}
		segs[i].lastTS = lastTS
		if lastTS > l.lastTS {
			l.lastTS = lastTS
		}
		if !torn {
			continue
		}
		if err := truncateFile(s.path, validSize); err != nil {
			return nil, err
		}
		for _, later := range segs[i+1:] {
			if err := os.Remove(later.path); err != nil {
				return nil, err
			}
		}
		segs = segs[:i+1]
		break
	}
	l.recovered = segs
	l.sealed = append([]segMeta(nil), segs...)
	var maxSeq uint64
	for _, s := range segs {
		if s.seq > maxSeq {
			maxSeq = s.seq
		}
	}
	l.activeSeq = maxSeq + 1
	f, err := createSegment(opts.Dir, l.activeSeq, opts.SegmentBytes)
	if err != nil {
		return nil, err
	}
	l.active = l.wrap(fileDevice{f})
	go l.flusher()
	return l, nil
}

func (l *Log) wrap(d Device) Device {
	if l.opts.WrapDevice != nil {
		return l.opts.WrapDevice(d)
	}
	return d
}

// Replay streams every record recovered at Open, in append (= commit) order.
// It must be called before the first Append in this process; records
// appended after Open are not replayed.
func (l *Log) Replay(fn func(ts uint64, payload []byte) error) error {
	for _, s := range l.recovered {
		if _, _, _, err := scanSegment(s.path, fn); err != nil {
			return err
		}
	}
	return nil
}

// Append frames a commit record and queues it for the next group-commit
// batch, returning its LSN. It never blocks on I/O — the engine calls it
// while holding its commit-serialization mutex, which is what makes log
// order equal commit order. Timestamps must be non-decreasing.
//
// A non-nil error (ErrClosed, ErrOutOfOrder) means the record was not
// queued: the commit's durability is not — and never will be — established,
// and the caller must surface that rather than acknowledge the commit.
func (l *Log) Append(ts uint64, payload []byte) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if ts < l.lastTS {
		return 0, fmt.Errorf("%w: %d after %d", ErrOutOfOrder, ts, l.lastTS)
	}
	l.lastTS = ts
	lsn := l.last.Load() + 1
	l.last.Store(lsn)
	l.pending = appendFrame(l.pending, ts, payload)
	l.pendingCount++
	l.pendingLastTS = ts
	l.appends.Add(1)
	l.bytes.Add(uint64(frameHeader + len(payload)))
	l.flushCond.Signal()
	return lsn, nil
}

// Err reports the log's sticky I/O error: the first flush or segment-roll
// failure, after which every WaitDurable returns it and no further batch is
// attempted. A non-nil Err means the log is degraded — commits may already
// be published in memory whose durability is unknown — and a serving process
// should report unhealthy rather than keep acknowledging durable commits.
// Nil means the log is healthy (or in-memory).
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// LastLSN returns the LSN of the last record appended — 0 before the first —
// with one atomic load. A record appended before LastLSN is read is covered
// by WaitDurable(LastLSN()): the engine's commits that append nothing wait so
// for the records of every commit their snapshot saw.
func (l *Log) LastLSN() LSN { return l.last.Load() }

// WaitDurable blocks until every record up to and including lsn is on disk.
// Committers never touch the device themselves: a dedicated flusher
// goroutine drains the pending queue in batches, so the next sync starts
// the moment the previous one finishes — no futex wakeup to elect a batch
// leader sits on the sync critical path. Everything appended while a sync
// was in flight rides the next batch. A record already durable costs one
// atomic load, and no mutex; a later flush failure does not make it less
// durable, so that returns nil whatever Err says.
func (l *Log) WaitDurable(lsn LSN) error {
	if l.durable.Load() >= lsn {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable.Load() < lsn {
		if l.err != nil {
			return l.err
		}
		l.waiting++
		l.cond.Wait()
		l.waiting--
	}
	return nil
}

// flusher is the single goroutine that writes and syncs batches. It owns
// the active device from Open until Close: nothing else performs I/O on it.
func (l *Log) flusher() {
	defer close(l.flusherDone)
	l.mu.Lock()
	for {
		for l.pendingCount == 0 && !l.closed {
			l.flushCond.Wait()
		}
		if l.err != nil {
			// Sticky error: drop the queue (WaitDurable reports the error,
			// not silent success) and idle until Close.
			l.pending, l.pendingCount = nil, 0
			if l.closed {
				l.mu.Unlock()
				return
			}
			continue
		}
		if l.pendingCount == 0 { // closed and drained
			l.mu.Unlock()
			return
		}
		if d := l.opts.GroupCommitMaxDelay; d > 0 && !l.closed && l.pendingCount < groupCommitMaxBatch {
			// Linger so more committers join the batch. New appends land in
			// l.pending while we sleep. Sleep in slices and stop as soon as
			// a slice adds nothing: every would-be committer is already in
			// the batch (or blocked behind it), so further lingering only
			// delays their wakeup.
			deadline := time.Now().Add(d)
			slice := d / 4
			if slice <= 0 {
				slice = d
			}
			for {
				before := l.pendingCount
				l.mu.Unlock()
				time.Sleep(slice)
				l.mu.Lock()
				if l.closed || l.pendingCount == before ||
					l.pendingCount >= groupCommitMaxBatch || !time.Now().Before(deadline) {
					break
				}
			}
		}
		// Appends during the write fill the other buffer; this one comes
		// back as spare once it is written.
		batch := l.pending
		target := l.last.Load()
		batchLastTS := l.pendingLastTS
		l.pending, l.spare = l.spare, nil
		l.pendingCount = 0
		dev := l.active
		l.mu.Unlock()

		var err error
		if len(batch) > 0 {
			_, err = dev.Write(batch)
		}
		if err == nil {
			err = dev.Sync()
		}
		l.fsyncs.Add(1)
		l.batches.Add(1)

		l.mu.Lock()
		if err != nil {
			l.err = fmt.Errorf("wal: flush: %w", err)
			l.cond.Broadcast()
			continue
		}
		if target > l.durable.Load() {
			l.durable.Store(target)
		}
		l.activeSize += int64(len(batch))
		if batchLastTS > l.activeLastTS {
			l.activeLastTS = batchLastTS
		}
		if cap(batch) <= maxKeptBatch {
			l.spare = batch[:0]
		}
		l.cond.Broadcast()
		if l.opts.Dir != "" && l.activeSize >= l.opts.SegmentBytes {
			l.rollLocked()
		}
	}
}

// rollLocked seals the active segment and starts the next one. Called by
// the flusher with l.mu held (the flusher's device ownership is what makes
// the unlocked file creation and close safe).
func (l *Log) rollLocked() {
	old := l.active
	oldSeq := l.activeSeq
	oldLastTS := l.activeLastTS
	l.mu.Unlock()

	f, err := createSegment(l.opts.Dir, oldSeq+1, l.opts.SegmentBytes)
	cerr := old.Close()

	l.mu.Lock()
	if err == nil {
		err = cerr
	}
	if err != nil {
		l.err = fmt.Errorf("wal: segment roll: %w", err)
		l.cond.Broadcast()
		return
	}
	l.sealed = append(l.sealed, segMeta{seq: oldSeq, path: segPath(l.opts.Dir, oldSeq), lastTS: oldLastTS})
	l.active = l.wrap(fileDevice{f})
	l.activeSeq = oldSeq + 1
	l.activeSize = 0
	l.activeLastTS = 0
}

// TruncateBelow deletes sealed segments whose records all have commit
// timestamps ≤ ts. The engine calls it after a checkpoint at ts is durable:
// those records are covered by the checkpoint image and no longer needed for
// recovery. A segment it fails to delete stays sealed, so the next call
// retries it; the first failure is returned.
func (l *Log) TruncateBelow(ts uint64) error {
	if l.opts.Dir == "" {
		return nil
	}
	l.mu.Lock()
	var keep, drop []segMeta
	for _, s := range l.sealed {
		if s.lastTS <= ts {
			drop = append(drop, s)
		} else {
			keep = append(keep, s)
		}
	}
	l.sealed = keep
	l.mu.Unlock()
	var firstErr error
	var failed []segMeta
	for _, s := range drop {
		if err := os.Remove(s.path); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			failed = append(failed, s)
			continue
		}
		l.truncated.Add(1)
	}
	if len(failed) > 0 {
		l.mu.Lock()
		l.sealed = append(failed, l.sealed...)
		l.mu.Unlock()
	}
	if len(failed) < len(drop) {
		if err := syncDir(l.opts.Dir); firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close flushes any pending records, stops the flusher and closes the
// active segment. The log must not be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.flusherDone
		return nil
	}
	l.closed = true
	l.flushCond.Signal()
	l.mu.Unlock()
	<-l.flusherDone // flusher drains the queue before exiting

	l.mu.Lock()
	err := l.err
	dev := l.active
	finalSize := l.activeSize
	activeSeq := l.activeSeq
	l.mu.Unlock()
	if cerr := dev.Close(); err == nil {
		err = cerr
	}
	if err == nil && l.opts.Dir != "" {
		// Trim the preallocated zero tail so a cleanly closed segment is
		// exactly its records — reopen then sees no torn tail to repair.
		err = truncateFile(segPath(l.opts.Dir, activeSeq), finalSize)
	}
	return err
}

// LastTS reports the highest commit timestamp seen in recovered segments (or
// appended since). The engine uses it to re-seed its commit clock.
func (l *Log) LastTS() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastTS
}

// Stats reports log accounting.
type Stats struct {
	Appends           uint64 // records appended this process
	Batches           uint64 // group-commit batches flushed
	Fsyncs            uint64 // physical syncs issued
	BytesAppended     uint64
	DurableLSN        LSN
	SegmentsTruncated uint64
	Waiting           int // callers blocked in WaitDurable right now
}

// BytesAppended reports the framed bytes appended this process: one atomic
// load, without the mutex Append holds (the engine's checkpoint trigger
// polls it on the transaction-end path).
func (l *Log) BytesAppended() uint64 { return l.bytes.Load() }

// StatsSnapshot returns current counters.
func (l *Log) StatsSnapshot() Stats {
	l.mu.Lock()
	waiting := l.waiting
	l.mu.Unlock()
	return Stats{
		Appends:           l.appends.Load(),
		Batches:           l.batches.Load(),
		Fsyncs:            l.fsyncs.Load(),
		BytesAppended:     l.bytes.Load(),
		DurableLSN:        l.durable.Load(),
		SegmentsTruncated: l.truncated.Load(),
		Waiting:           waiting,
	}
}

// --- segment files ---

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", seq))
}

func listSegments(dir string) ([]segMeta, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segMeta
	for _, e := range ents {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%d.seg", &seq); n != 1 {
			continue
		}
		segs = append(segs, segMeta{seq: seq, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

func createSegment(dir string, seq uint64, size int64) (*os.File, error) {
	f, err := os.OpenFile(segPath(dir, seq), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	// Reserve the segment's full extent now so appends never extend the file
	// (see fileDevice.Sync). Zero fill past the logical tail is
	// recovery-safe: a zeroed header fails its CRC, so reopen treats it as
	// the torn tail and truncates it away.
	preallocate(f, size)
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func truncateFile(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Truncate(size)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendFrame appends payload to buf as one frame at ts. The frame is built
// in place: a header array of its own would escape to the heap through the
// CRC call.
func appendFrame(buf []byte, ts uint64, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameHeader)...)
	buf = append(buf, payload...)
	frame := buf[start:]
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint64(frame[8:16], ts)
	binary.LittleEndian.PutUint32(frame[0:4], crc32.Checksum(frame[4:], castagnoli))
	return buf
}

// scanSegment reads a segment file and scans its frames (scanFrames).
func scanSegment(path string, fn func(ts uint64, payload []byte) error) (valid int64, lastTS uint64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, err
	}
	return scanFrames(data, fn)
}

// scanFrames walks data's frames, optionally invoking fn per frame. It
// returns the byte length of the valid prefix, the highest TS seen, and
// whether data ends in a torn or corrupt frame (anything after the valid
// prefix). A short or corrupt tail is expected after a crash — it is the
// write that never finished syncing — and is not an error.
func scanFrames(data []byte, fn func(ts uint64, payload []byte) error) (valid int64, lastTS uint64, torn bool, err error) {
	off := 0
	for {
		if off == len(data) {
			return int64(off), lastTS, false, nil
		}
		if len(data)-off < frameHeader {
			return int64(off), lastTS, true, nil
		}
		hdr := data[off : off+frameHeader]
		want := binary.LittleEndian.Uint32(hdr[0:4])
		plen := binary.LittleEndian.Uint32(hdr[4:8])
		ts := binary.LittleEndian.Uint64(hdr[8:16])
		if plen > maxRecordBytes || off+frameHeader+int(plen) > len(data) {
			return int64(off), lastTS, true, nil
		}
		payload := data[off+frameHeader : off+frameHeader+int(plen)]
		crc := crc32.Update(0, castagnoli, hdr[4:16])
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != want {
			return int64(off), lastTS, true, nil
		}
		if ts < lastTS {
			// Timestamps regressing inside a valid-CRC prefix means the log
			// was tampered with or mis-written; stop trusting it here.
			return int64(off), lastTS, true, nil
		}
		lastTS = ts
		if fn != nil {
			if err := fn(ts, payload); err != nil {
				return int64(off), lastTS, false, err
			}
		}
		off += frameHeader + int(plen)
	}
}

// --- checkpoint file ---

const (
	ckptName = "CHECKPOINT"
	ckptTmp  = "CHECKPOINT.tmp"
)

// ErrCorruptCheckpoint reports a checkpoint file that failed validation.
// Unlike a torn log tail this is unexpected — checkpoints are published by
// atomic rename and never partially visible — so Open fails rather than
// silently recovering less state than was durable.
var ErrCorruptCheckpoint = errors.New("wal: corrupt checkpoint")

// CheckpointWriter streams one checkpoint image into CHECKPOINT.tmp. Frame
// appends one frame; Commit publishes the image atomically; Abort (a no-op
// after Commit) discards it. Its memory is one frame buffer, whatever the
// image's size.
type CheckpointWriter struct {
	dir string
	ts  uint64
	f   *os.File // nil once committed or aborted
	buf []byte   // the frame being written: header room, then payload
	err error    // first write error, returned by every later Frame and by Commit
}

// CreateCheckpoint starts a checkpoint image of the state at commit
// timestamp ts in dir, truncating any CHECKPOINT.tmp a crash left behind.
func CreateCheckpoint(dir string, ts uint64) (*CheckpointWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, ckptTmp), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &CheckpointWriter{dir: dir, ts: ts, f: f}, nil
}

// CheckpointPayloadBytes is the payload that fits Payload's buffer: a
// frame of it is 64 KiB.
const CheckpointPayloadBytes = 64<<10 - frameHeader

// Payload returns the writer's frame buffer, emptied, for the next frame's
// payload to be appended to. Building the payload there and handing it to
// Frame lets an image of any size pass through this one buffer.
func (w *CheckpointWriter) Payload() []byte {
	if w.buf == nil {
		w.buf = make([]byte, frameHeader, frameHeader+CheckpointPayloadBytes)
	}
	return w.buf[frameHeader:frameHeader]
}

// Frame appends payload to the image as one frame at the checkpoint's ts.
// payload may be Payload's buffer, grown.
func (w *CheckpointWriter) Frame(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	w.buf = appendFrame(w.buf[:0], w.ts, payload)
	_, w.err = w.f.Write(w.buf)
	return w.err
}

// Commit appends the end frame and atomically publishes the image: fsync,
// rename over the previous checkpoint, fsync the directory. After it returns
// nil the checkpoint is durable and the log below its ts may be truncated;
// on error the previous checkpoint is still the one recovery reads.
func (w *CheckpointWriter) Commit() error {
	err := w.Frame(nil)
	if err == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	tmp := filepath.Join(w.dir, ckptTmp)
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, ckptName)); err != nil {
		return err
	}
	return syncDir(w.dir)
}

// Abort discards an uncommitted image. It is a no-op after Commit.
func (w *CheckpointWriter) Abort() {
	if w.f == nil {
		return
	}
	w.f.Close()
	w.f = nil
	os.Remove(filepath.Join(w.dir, ckptTmp))
}

// ReadCheckpoint hands each frame payload of the checkpoint image, in order,
// to fn, and returns the image's ts. ok reports whether a checkpoint was
// found. A found image that is not exactly whole frames of one ts closed by
// the end frame — including one in an earlier format — is
// ErrCorruptCheckpoint; fn may by then have seen some of its frames.
func ReadCheckpoint(dir string, fn func(payload []byte) error) (ts uint64, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, ckptName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	if len(data) >= frameHeader {
		ts = binary.LittleEndian.Uint64(data[8:16])
	}
	ended := false
	_, _, torn, err := scanFrames(data, func(fts uint64, payload []byte) error {
		if ended || fts != ts {
			return ErrCorruptCheckpoint
		}
		if len(payload) == 0 {
			ended = true
			return nil
		}
		return fn(payload)
	})
	if err == nil && (torn || !ended) {
		err = ErrCorruptCheckpoint
	}
	return ts, err == nil, err
}
