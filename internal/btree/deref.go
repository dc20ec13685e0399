//go:build !workcount

package btree

// noteDeref marks a read of the key stored at p. It does nothing outside the
// workcount build, in which deref_count.go records the reads for the descent
// work budget (descent_test.go).
func noteDeref(*byte) {}
