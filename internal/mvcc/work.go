//go:build !workcount

package mvcc

import "sync"

// latch is a partition's reader-writer latch. Outside the workcount build it
// is sync.RWMutex itself; in that build work_count.go counts its holds,
// shared and exclusive apart, and the versions a read walks (noteVersion,
// which does nothing here).
type latch = sync.RWMutex

func noteVersion() {}
