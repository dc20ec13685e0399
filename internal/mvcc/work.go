//go:build !workcount

package mvcc

import "sync"

// latch is a partition's reader-writer latch. Outside the workcount build it
// is sync.RWMutex itself; in that build work_count.go counts its holds,
// shared and exclusive apart, the versions a read walks (noteVersion) and
// the reader words set and cleared (noteRegister, noteClear), which do
// nothing here.
type latch = sync.RWMutex

func noteVersion()  {}
func noteRegister() {}
func noteClear()    {}
