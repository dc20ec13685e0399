//go:build linux

package wal

import (
	"os"
	"syscall"
)

// datasync flushes file data (plus whatever metadata is needed to read it
// back) without forcing a full inode flush. With segments preallocated to
// their final size, the append path changes neither the file size nor the
// block allocation, so fdatasync skips the inode write File.Sync would pay
// on every group-commit batch.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return err
		}
	}
}

// zeroFill is what preallocate writes, shared by every segment roll so a roll
// allocates no fill buffer. It is only ever read.
var zeroFill [1 << 20]byte

// preallocate writes the segment's full extent as zeros and syncs once, so
// appends change neither the file size nor the extent state. fallocate
// alone is not enough: it reserves *unwritten* extents, and every later
// append pays the unwritten→initialized conversion — metadata the
// fdatasync then has to journal, which is the cost we are trying to avoid.
// Zero-filling initializes the extents up front, making each group-commit
// sync a pure data flush. Best-effort: on failure appends simply grow the
// file (WriteAt never moves the append offset, so a partial fill is
// overwritten harmlessly). The one-time fill is amortized over the whole
// segment's worth of batches.
func preallocate(f *os.File, size int64) {
	if size <= 0 {
		return
	}
	_ = syscall.Fallocate(int(f.Fd()), 0, 0, size)
	for off := int64(0); off < size; {
		n := int64(len(zeroFill))
		if size-off < n {
			n = size - off
		}
		if _, err := f.WriteAt(zeroFill[:n], off); err != nil {
			break
		}
		off += n
	}
	_ = f.Sync()
}
