//go:build !workcount

package core

// The work hooks count conflict marks and retirement-queue traffic. They do
// nothing outside the workcount build, in which work_count.go records them
// for the work budgets.
func noteMark()       {}
func noteQueued()     {}
func noteDrained(int) {}
