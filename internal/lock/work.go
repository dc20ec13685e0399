//go:build !workcount

package lock

// The work hooks count lock-table requests and mutex acquisitions. They do
// nothing outside the workcount build, in which work_count.go records them
// for the work budgets.
func noteAcquires(int) {}
func noteShardLock()   {}
func noteOwnerLock()   {}
