//go:build !workcount

package lock

// The work hooks count lock-table requests, in-latch probes, mutex
// acquisitions and key hashes. They do nothing outside the workcount build,
// in which work_count.go records them for the work budgets.
func noteAcquires(int) {}
func noteProbe()       {}
func noteShardLock()   {}
func noteOwnerLock()   {}
func noteKeyHash()     {}
