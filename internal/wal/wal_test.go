package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ssi/internal/raceflag"
)

func mustOpen(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

// mustAppend is the test shorthand for appends that cannot legally fail
// (in-order timestamps on an open log). It panics rather than t.Fatal so it
// is usable from committer goroutines too.
func mustAppend(l *Log, ts uint64, payload []byte) LSN {
	lsn, err := l.Append(ts, payload)
	if err != nil {
		panic(err)
	}
	return lsn
}

func collect(t *testing.T, l *Log) (tss []uint64, payloads [][]byte) {
	t.Helper()
	if err := l.Replay(func(ts uint64, p []byte) error {
		tss = append(tss, ts)
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return
}

func TestNullModeNoDelay(t *testing.T) {
	l := mustOpen(t, Options{})
	lsn := mustAppend(l, 1, []byte("x"))
	start := time.Now()
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 10*time.Millisecond {
		t.Fatal("zero-delay sync slept")
	}
	st := l.StatsSnapshot()
	if st.Appends != 1 || st.BytesAppended != frameHeader+1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLSNsMonotonic(t *testing.T) {
	l := mustOpen(t, Options{})
	prev := LSN(0)
	for i := 0; i < 100; i++ {
		lsn := mustAppend(l, uint64(i+1), nil)
		if lsn <= prev {
			t.Fatalf("LSN %d after %d", lsn, prev)
		}
		prev = lsn
	}
}

func TestOutOfOrderTSErrors(t *testing.T) {
	l := mustOpen(t, Options{})
	if _, err := l.Append(5, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(4, nil); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("TS regression: err = %v, want ErrOutOfOrder", err)
	}
	// The contract violation must not have queued anything or wedged the
	// log: appending in order still works.
	lsn, err := l.Append(6, []byte("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if st := l.StatsSnapshot(); st.Appends != 2 {
		t.Fatalf("appends = %d, want 2 (rejected record counted?)", st.Appends)
	}
}

func TestAppendOnClosedErrors(t *testing.T) {
	l := mustOpen(t, Options{})
	if _, err := l.Append(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(2, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed: err = %v, want ErrClosed", err)
	}
}

// TestGroupCommit checks the core property behind Figures 6.2-6.5: many
// concurrent committers share physical fsyncs, so the sync count is far
// below the committer count.
func TestGroupCommit(t *testing.T) {
	const lat = 10 * time.Millisecond
	const committers = 64
	l := mustOpen(t, Options{SyncDelay: lat})
	var mu sync.Mutex
	next := uint64(0)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			next++
			lsn := mustAppend(l, next, []byte("rec"))
			mu.Unlock()
			if err := l.WaitDurable(lsn); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := l.StatsSnapshot()
	if st.Fsyncs >= committers/2 {
		t.Fatalf("group commit ineffective: %d fsyncs for %d committers", st.Fsyncs, committers)
	}
	if elapsed > time.Duration(committers)*lat/4 {
		t.Fatalf("commits serialized: %v elapsed", elapsed)
	}
}

func TestGroupCommitMaxDelayBatches(t *testing.T) {
	l := mustOpen(t, Options{GroupCommitMaxDelay: 5 * time.Millisecond})
	var mu sync.Mutex
	next := uint64(0)
	var wg sync.WaitGroup
	const committers = 32
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			next++
			lsn := mustAppend(l, next, []byte("rec"))
			mu.Unlock()
			if err := l.WaitDurable(lsn); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := l.StatsSnapshot()
	if st.Batches == 0 || st.Appends != committers {
		t.Fatalf("stats = %+v", st)
	}
	if avg := float64(st.Appends) / float64(st.Batches); avg <= 1.5 {
		t.Fatalf("linger produced no batching: avg batch size %.2f", avg)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	var want [][]byte
	for i := 1; i <= 20; i++ {
		p := []byte(fmt.Sprintf("record-%d", i))
		want = append(want, p)
		lsn := mustAppend(l, uint64(i), p)
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, Options{Dir: dir})
	tss, got := collect(t, l2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) || tss[i] != uint64(i+1) {
			t.Fatalf("record %d: ts=%d payload=%q", i, tss[i], got[i])
		}
	}
	if l2.LastTS() != 20 {
		t.Fatalf("LastTS = %d", l2.LastTS())
	}
}

func TestCloseFlushesPending(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir})
	mustAppend(l, 1, []byte("unwaited"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	_, got := collect(t, l2)
	if len(got) != 1 || string(got[0]) != "unwaited" {
		t.Fatalf("got %q", got)
	}
}

// writeRecords creates a log dir with n durable records ("r1".."rn") and
// returns the segment file path.
func writeRecords(t *testing.T, dir string, n int) string {
	t.Helper()
	l := mustOpen(t, Options{Dir: dir})
	for i := 1; i <= n; i++ {
		lsn := mustAppend(l, uint64(i), []byte(fmt.Sprintf("r%d", i)))
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	return segs[len(segs)-1].path
}

// frameOffsets returns the byte offset of every frame boundary in the
// segment, including 0 and the final size.
func frameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int64{0}
	off := 0
	for off < len(data) {
		plen := int(uint32(data[off+4]) | uint32(data[off+5])<<8 | uint32(data[off+6])<<16 | uint32(data[off+7])<<24)
		off += frameHeader + plen
		offs = append(offs, int64(off))
	}
	return offs
}

// TestTornTailMatrix truncates the log at every frame boundary and at every
// mid-frame offset between boundaries, then verifies recovery yields exactly
// the record prefix before the cut.
func TestTornTailMatrix(t *testing.T) {
	const n = 8
	master := t.TempDir()
	seg := writeRecords(t, master, n)
	offs := frameOffsets(t, seg)
	if len(offs) != n+1 {
		t.Fatalf("expected %d boundaries, got %d", n+1, len(offs))
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	cuts := map[int64]int{} // cut offset → expected record count
	for i, off := range offs {
		cuts[off] = i
	}
	for i := 1; i < len(offs); i++ {
		mid := (offs[i-1] + offs[i]) / 2
		if _, dup := cuts[mid]; !dup {
			cuts[mid] = i - 1 // torn record i is lost
		}
	}

	for cut, wantRecords := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l := mustOpen(t, Options{Dir: dir})
		tss, _ := collect(t, l)
		if len(tss) != wantRecords {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(tss), wantRecords)
		}
		for j, ts := range tss {
			if ts != uint64(j+1) {
				t.Fatalf("cut at %d: record %d has ts %d", cut, j, ts)
			}
		}
		l.Close()
	}
}

// TestCorruptTail flips a byte in the middle of the last record; recovery
// must drop that record but keep everything before it.
func TestCorruptTail(t *testing.T) {
	const n = 5
	dir := t.TempDir()
	seg := writeRecords(t, dir, n)
	offs := frameOffsets(t, seg)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[offs[n-1]+frameHeader] ^= 0xFF // corrupt last record's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, Options{Dir: dir})
	tss, _ := collect(t, l)
	if len(tss) != n-1 {
		t.Fatalf("recovered %d records, want %d", len(tss), n-1)
	}
}

// TestCorruptMiddleDropsSuffix corrupts an interior record; everything from
// that point on is untrusted and dropped, leaving a clean prefix.
func TestCorruptMiddleDropsSuffix(t *testing.T) {
	const n = 6
	dir := t.TempDir()
	seg := writeRecords(t, dir, n)
	offs := frameOffsets(t, seg)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[offs[2]+frameHeader] ^= 0xFF // corrupt record 3
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, Options{Dir: dir})
	tss, _ := collect(t, l)
	if len(tss) != 2 {
		t.Fatalf("recovered %d records, want 2", len(tss))
	}
}

func TestSegmentRollAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	for i := 1; i <= 10; i++ {
		lsn := mustAppend(l, uint64(i), bytes.Repeat([]byte{byte(i)}, 40))
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected ≥3 segments after rolls, got %d", len(segs))
	}
	// Everything ≤ ts 5 is checkpointed; sealed segments below that go away.
	if err := l.TruncateBelow(5); err != nil {
		t.Fatal(err)
	}
	after, _ := listSegments(dir)
	if len(after) >= len(segs) {
		t.Fatalf("truncation removed nothing: %d → %d segments", len(segs), len(after))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Records above the truncation point survive reopen.
	l2 := mustOpen(t, Options{Dir: dir})
	tss, _ := collect(t, l2)
	if len(tss) == 0 || tss[len(tss)-1] != 10 {
		t.Fatalf("post-truncate replay: %v", tss)
	}
	for _, ts := range tss {
		if ts > 5 {
			return // at least one post-checkpoint record retained
		}
	}
	t.Fatal("no records above truncation point")
}

// TestTruncateBelowRetriesFailedRemovals: a sealed segment whose removal
// fails is neither counted as truncated nor forgotten — the next call removes
// it. A non-empty directory where a segment file was makes os.Remove fail,
// even for root.
func TestTruncateBelowRetriesFailedRemovals(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	defer l.Close()
	for i := 1; i <= 12; i++ {
		lsn := mustAppend(l, uint64(i), bytes.Repeat([]byte{byte(i)}, 40))
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	// The segments a checkpoint at 8 covers. (They are all sealed by now:
	// only the roll after the last batch can still be in flight.)
	const ckpt = 8
	var sealed []segMeta
	l.mu.Lock()
	for _, s := range l.sealed {
		if s.lastTS <= ckpt {
			sealed = append(sealed, s)
		}
	}
	l.mu.Unlock()
	if len(sealed) < 3 {
		t.Fatalf("expected ≥3 sealed segments below %d after rolls, got %d", ckpt, len(sealed))
	}
	for _, s := range sealed[:2] {
		if err := os.Remove(s.path); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(s.path, "pin"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateBelow(ckpt); err == nil {
		t.Fatal("TruncateBelow reported success with two removals failing")
	}
	if got, want := l.StatsSnapshot().SegmentsTruncated, uint64(len(sealed)-2); got != want {
		t.Fatalf("SegmentsTruncated = %d after two of %d removals failed, want %d", got, len(sealed), want)
	}
	for _, s := range sealed[:2] {
		if err := os.Remove(filepath.Join(s.path, "pin")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateBelow(ckpt); err != nil {
		t.Fatal(err)
	}
	if got, want := l.StatsSnapshot().SegmentsTruncated, uint64(len(sealed)); got != want {
		t.Fatalf("SegmentsTruncated = %d after the retry, want %d", got, want)
	}
	for _, s := range sealed[:2] {
		if _, err := os.Stat(s.path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived the retry: %v", s.path, err)
		}
	}
}

func TestReplayAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, SegmentBytes: 32})
	for i := 1; i <= 12; i++ {
		lsn := mustAppend(l, uint64(i), []byte(fmt.Sprintf("record-%02d", i)))
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir})
	tss, _ := collect(t, l2)
	if len(tss) != 12 {
		t.Fatalf("replayed %d records across segments, want 12", len(tss))
	}
	for i, ts := range tss {
		if ts != uint64(i+1) {
			t.Fatalf("record %d out of order: ts %d", i, ts)
		}
	}
}

// writeCheckpoint publishes frames as the checkpoint at ts, each built in
// the writer's own payload buffer.
func writeCheckpoint(t *testing.T, dir string, ts uint64, frames ...string) {
	t.Helper()
	w, err := CreateCheckpoint(dir, ts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	for _, f := range frames {
		if err := w.Frame(append(w.Payload(), f...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

// readCheckpoint is ReadCheckpoint collecting the frames.
func readCheckpoint(dir string) (ts uint64, frames []string, ok bool, err error) {
	ts, ok, err = ReadCheckpoint(dir, func(p []byte) error {
		frames = append(frames, string(p))
		return nil
	})
	return ts, frames, ok, err
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	check := func(wantTS uint64, want ...string) {
		t.Helper()
		ts, got, ok, err := readCheckpoint(dir)
		if err != nil || !ok || ts != wantTS || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("ReadCheckpoint = %d, %d frames, %v %v; want %d, %d frames", ts, len(got), ok, err, wantTS, len(want))
		}
	}
	writeCheckpoint(t, dir, 42, "checkpoint", "image", "frames")
	check(42, "checkpoint", "image", "frames")
	// Overwrite is atomic: a second checkpoint replaces the first.
	writeCheckpoint(t, dir, 99, "newer")
	check(99, "newer")
	// A frame far larger than the writer's buffer, and an image of no frames.
	big := string(bytes.Repeat([]byte("0123456789abcdef"), 40_000))
	writeCheckpoint(t, dir, 100, big, "after")
	check(100, big, "after")
	writeCheckpoint(t, dir, 101)
	check(101)
}

func TestCheckpointMissing(t *testing.T) {
	_, _, ok, err := readCheckpoint(t.TempDir())
	if ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

// TestCheckpointCorrupt: an image that is not exactly whole frames of one ts
// closed by the end frame is ErrCorruptCheckpoint, as is the earlier
// SSICKPT2 layout (magic | ts | payload | payloadLen | crc32c).
func TestCheckpointCorrupt(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoint(t, dir, 7, "first", "second")
	path := filepath.Join(dir, ckptName)
	good, _ := os.ReadFile(path)
	second := frameHeader + len("first")
	end := second + frameHeader + len("second")
	older := append([]byte("SSICKPT2"), 7, 0, 0, 0, 0, 0, 0, 0)
	older = append(older, "payload"...)
	older = append(older, 7, 0, 0, 0, 0, 0, 0, 0)
	older = binary.LittleEndian.AppendUint32(older, crc32.Checksum(older[8:], castagnoli))
	for _, c := range []struct {
		what string
		mut  func([]byte) []byte
	}{
		{"flipped ts byte", func(d []byte) []byte { d[9] ^= 0x01; return d }},
		{"flipped payload byte", func(d []byte) []byte { d[frameHeader+2] ^= 0x01; return d }},
		{"flipped crc byte", func(d []byte) []byte { d[second] ^= 0x01; return d }},
		{"cut at a frame boundary before the end frame", func(d []byte) []byte { return d[:end] }},
		{"cut mid-frame", func(d []byte) []byte { return d[:second+frameHeader+2] }},
		{"cut inside the end frame", func(d []byte) []byte { return d[:len(d)-1] }},
		{"trailing byte", func(d []byte) []byte { return append(d, 0) }},
		{"frame after the end frame", func(d []byte) []byte { return appendFrame(d, 7, []byte("late")) }},
		{"frame of another ts", func(d []byte) []byte { return append(appendFrame(nil, 6, []byte("first")), d[second:]...) }},
		{"empty file", func(d []byte) []byte { return nil }},
		{"earlier format", func([]byte) []byte { return older }},
	} {
		if err := os.WriteFile(path, c.mut(append([]byte(nil), good...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := readCheckpoint(dir); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%s: err = %v, want ErrCorruptCheckpoint", c.what, err)
		}
	}
}

// TestCheckpointAbortKeepsPrevious: an image aborted mid-stream never
// replaces the published checkpoint and leaves no temporary file; Abort after
// Abort or after Commit does nothing. (A partial CHECKPOINT.tmp left by a
// crash is ssidb's TestPartialCheckpointTmpIgnored.)
func TestCheckpointAbortKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoint(t, dir, 5, "published")
	w, err := CreateCheckpoint(dir, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Frame(bytes.Repeat([]byte("x"), 10_000)); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	w.Abort()
	if _, err := os.Stat(filepath.Join(dir, ckptTmp)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("aborted image left %s: %v", ckptTmp, err)
	}
	if ts, got, ok, err := readCheckpoint(dir); err != nil || !ok || ts != 5 || fmt.Sprint(got) != "[published]" {
		t.Fatalf("after an aborted image: ReadCheckpoint = %d %q %v %v", ts, got, ok, err)
	}
	writeCheckpoint(t, dir, 8, "next") // its deferred Abort follows Commit
	if ts, got, ok, err := readCheckpoint(dir); err != nil || !ok || ts != 8 || fmt.Sprint(got) != "[next]" {
		t.Fatalf("after the next checkpoint: ReadCheckpoint = %d %q %v %v", ts, got, ok, err)
	}
}

// TestBatchBuffersAlternate: the flusher hands each written batch buffer back
// as the next pending one, so a steady stream of appends cycles through two
// buffers; a buffer a huge record grew past maxKeptBatch is not kept.
func TestBatchBuffersAlternate(t *testing.T) {
	l := mustOpen(t, Options{})
	defer l.Close()
	seen := map[*byte]bool{}
	rec := make([]byte, 100)
	for ts := uint64(1); ts <= 50; ts++ {
		lsn := mustAppend(l, ts, rec)
		// Whichever buffer is pending now — the flusher may already have
		// swapped this record's batch out — is one of the two.
		l.mu.Lock()
		if cap(l.pending) > 0 {
			seen[&l.pending[:1][0]] = true
		}
		l.mu.Unlock()
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) > 2 {
		t.Fatalf("%d distinct batch buffers over 50 batches, want at most 2", len(seen))
	}
	lsn := mustAppend(l, 51, make([]byte, 2*maxKeptBatch))
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if cap(l.spare) > maxKeptBatch || cap(l.pending) > maxKeptBatch {
		t.Fatalf("kept a %d-byte batch buffer (pending cap %d), cap is %d", cap(l.spare), cap(l.pending), maxKeptBatch)
	}
}

// TestWALAppendAllocBudget: a steady-state Append + WaitDurable on a segment
// file allocates nothing — not in Append, not in the flusher's write and
// datasync, not for the next batch's buffer.
func TestWALAppendAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on synchronisation")
	}
	l := mustOpen(t, Options{Dir: t.TempDir(), SegmentBytes: 1 << 20})
	defer l.Close()
	rec := make([]byte, 64)
	ts := uint64(0)
	commit := func() {
		ts++
		lsn, err := l.Append(ts, rec)
		if err == nil {
			err = l.WaitDurable(lsn)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		commit()
	}
	// 10 + 6×101 records of 80 bytes stay far inside one 1 MiB segment.
	if got := testing.AllocsPerRun(100, commit); got != 0 {
		t.Fatalf("Append + WaitDurable: %.2f allocs per call, want 0", got)
	}
}

// heldDevice is a Device whose Sync waits for the test to send on release.
type heldDevice struct {
	Device
	release chan struct{}
}

func (d heldDevice) Sync() error {
	<-d.release
	return d.Device.Sync()
}

// TestWrapDeviceHoldsDurability: every device the log writes to goes through
// WrapDevice, segments rolled to included, so a device whose Sync blocks holds
// back WaitDurable — which reports its caller as Waiting — until the Sync
// returns. LastLSN names the last record appended, and once a record is
// durable, waiting for it returns at once.
func TestWrapDeviceHoldsDurability(t *testing.T) {
	release := make(chan struct{})
	wrapped := 0
	l := mustOpen(t, Options{Dir: t.TempDir(), SegmentBytes: 64, WrapDevice: func(d Device) Device {
		wrapped++
		return heldDevice{d, release}
	}})
	if l.LastLSN() != 0 {
		t.Fatalf("LastLSN of an empty log = %d", l.LastLSN())
	}
	for i := uint64(1); i <= 3; i++ {
		lsn := mustAppend(l, i, bytes.Repeat([]byte{'x'}, 100)) // each batch rolls the segment
		if l.LastLSN() != lsn {
			t.Fatalf("LastLSN = %d after appending %d", l.LastLSN(), lsn)
		}
		done := make(chan error, 1)
		go func() { done <- l.WaitDurable(lsn) }()
		for l.StatsSnapshot().Waiting != 1 {
			select {
			case err := <-done:
				t.Fatalf("WaitDurable(%d) returned %v before its Sync did", lsn, err)
			default:
				time.Sleep(time.Millisecond)
			}
		}
		release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(lsn); err != nil || l.StatsSnapshot().Waiting != 0 {
			t.Fatalf("WaitDurable of a durable record: %v, %d waiting", err, l.StatsSnapshot().Waiting)
		}
	}
	if err := l.Close(); err != nil { // nothing pending: no Sync to release
		t.Fatal(err)
	}
	if wrapped != 4 { // the first segment and three rolls
		t.Fatalf("WrapDevice saw %d devices, want 4", wrapped)
	}
}
