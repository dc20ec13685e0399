// Package lockstate is what a transaction record keeps of the lock manager:
// the names of lockable objects (Key, Kind), the lock modes (Mode) and one
// owner's bookkeeping (Owner). It sits below package core so that core.Txn
// can embed an Owner, which makes a transaction's lock state part of its
// record rather than an allocation of its own. Package lock implements the
// lock table and re-exports every type here under its own name.
package lockstate

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Mode is a lock mode. Modes are bit flags because one owner can hold
// several modes on one key (e.g. SIREAD plus EXCLUSIVE on a gap it scanned
// and then inserted into: a gap keeps its SIREAD, §3.7.3 upgrades only rows
// and pages).
type Mode uint8

const (
	// Shared is the classical read lock used by S2PL transactions.
	Shared Mode = 1 << iota
	// Exclusive is the write lock used by all isolation levels.
	Exclusive
	// SIRead records that an SI transaction read a version of the item. It
	// neither blocks nor is blocked (thesis §3.2); it exists purely so that
	// writers can detect read-write conflicts.
	SIRead
)

// String returns a short human-readable mode name.
func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case Exclusive:
		return "X"
	case SIRead:
		return "SIREAD"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Kind distinguishes the namespaces of lockable objects.
type Kind uint8

const (
	// Row locks protect a single record (InnoDB-style granularity).
	Row Kind = iota
	// Gap locks protect the open interval just before a key against
	// concurrent insertion or deletion, as in InnoDB's next-key locking.
	// They live in a namespace separate from Row so that a gap lock on x
	// never conflicts with a row lock on x (thesis §2.5.2).
	Gap
	// Page locks protect a whole B+tree page (Berkeley DB-style
	// granularity, thesis Chapter 4).
	Page
	// GapSupremum is the gap after the largest key in a table — the
	// "special supremum key" of thesis §2.5.2, protecting inserts beyond
	// the current end of the key space.
	GapSupremum
)

// String returns a short kind name.
func (k Kind) String() string {
	switch k {
	case Row:
		return "row"
	case Gap:
		return "gap"
	case Page:
		return "page"
	case GapSupremum:
		return "gap-supremum"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Key names one lockable object.
type Key struct {
	Table string
	Kind  Kind
	K     string
}

// String formats the key for diagnostics.
func (k Key) String() string { return fmt.Sprintf("%s/%s/%q", k.Table, k.Kind, k.K) }

// Page returns the page number of a page key (package lock's PageKey).
func (k Key) Page() uint32 {
	return uint32(k.K[0])<<24 | uint32(k.K[1])<<16 | uint32(k.K[2])<<8 | uint32(k.K[3])
}

// Owner is one transaction's lock bookkeeping: the lock-table entries it
// holds a mode on, and how many of them it holds with SIRead. It is embedded
// in the transaction's record, so no owner registry exists and a first lock
// allocates no bookkeeping; package lock defines what every field means and
// when it may change.
//
// The mutex guards Held, with the list it points to, and SIReads. The three
// flags share one atomic word, so they can be tested without it: used is set
// before the owner's first lock (by its own goroutine, or by a transaction
// converting its implicit row lock) and never cleared; unlocked once any
// release has begun, so that the owner's implicit row locks — its uncommitted
// versions — are no longer in force; released once a terminal release has
// begun (and under the mutex).
type Owner struct {
	sync.Mutex
	Held    *[]Held // nil while the owner holds nothing
	SIReads int32   // how many listed entries the owner holds with SIRead
	flags   atomic.Uint32
}

// Held is an element of an owner's list: a lock-table entry (package lock's
// *entry) the owner holds a mode on, and a hint of that mode.
type Held struct {
	Entry unsafe.Pointer
	Hint  Mode
}

const (
	used uint32 = 1 << iota
	unlocked
	released
)

// MarkUsed records that the owner is about to take its first lock: its own
// goroutine calls it before every acquire, and a conversion of its implicit
// row lock before recording it. The flag is set once, so a load spares the
// later acquires an atomic read-modify-write.
func (o *Owner) MarkUsed() {
	if o.flags.Load()&used == 0 {
		o.flags.Or(used)
	}
}

// Used reports whether the owner ever took a lock.
func (o *Owner) Used() bool { return o.flags.Load()&used != 0 }

// MarkUnlocked records that the owner has begun to let go of its locks, at
// commit or abort: its implicit row locks end here, and none may be converted
// into a lock-table entry any more. Set before Used is read, so that a
// conversion that marks the owner used after a release skipped it finds this
// flag set.
func (o *Owner) MarkUnlocked() { o.flags.Or(unlocked) }

// Unlocked reports whether MarkUnlocked was called.
func (o *Owner) Unlocked() bool { return o.flags.Load()&unlocked != 0 }

// MarkReleased records that the owner's terminal release has begun: no lock
// may be recorded for it again.
func (o *Owner) MarkReleased() { o.flags.Or(released) }

// Released reports whether MarkReleased was called.
func (o *Owner) Released() bool { return o.flags.Load()&released != 0 }
