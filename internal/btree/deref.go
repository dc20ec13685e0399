//go:build !workcount

package btree

// noteDeref marks a read of the key stored at p, noteDescent the start of a
// descent from the root (a lookup's, an insert's, a seek's) and noteNode a
// page it enters. They do nothing outside the workcount build, in which
// deref_count.go records them for the work budgets.
func noteDeref(*byte) {}
func noteDescent()    {}
func noteNode()       {}
